// Package orderedreduce is a statgate fixture: floating-point reductions
// into variables captured by parallel loop bodies, and the per-task
// partials that replace them.
package orderedreduce

import (
	"sync"

	"repro/internal/parallel"
)

// total is package state a loop body must not fold into either.
var total float64

type acc struct{ sum float32 }

func capturedSum(x []float64) float64 {
	var sum float64
	var mu sync.Mutex
	parallel.Range(len(x), func(lo, hi int) {
		var s float64
		for i := lo; i < hi; i++ {
			s += x[i]
		}
		mu.Lock()
		sum += s // want `floating-point \+= on sum, declared outside the parallel loop body`
		mu.Unlock()
	})
	return sum
}

func capturedOps(x []float32, a *acc, p *float32) {
	prod := float32(1)
	parallel.ForGrain(len(x), 1, func(i int) {
		prod *= x[i]  // want `floating-point \*= on prod`
		a.sum -= x[i] // want `floating-point -= on a`
		*p += x[i]    // want `floating-point \+= on p`
		total += 1    // want `floating-point \+= on total`
	})
	_ = prod
}

func nested(x []float64) float64 {
	var sum float64
	parallel.For(len(x), func(i int) {
		parallel.RangeGrain(4, 1, func(lo, hi int) {
			sum += x[i] // want `floating-point \+= on sum`
		})
	})
	return sum
}

// perBlock is the nn.MSE form: each task writes its own partial,
// indexed by its range, and the partials are summed serially after.
func perBlock(x []float64) float64 {
	const block = 64
	partial := make([]float64, (len(x)+block-1)/block)
	parallel.ForGrain(len(partial), 1, func(b int) {
		var s float64
		for i := b * block; i < min((b+1)*block, len(x)); i++ {
			s += x[i]
		}
		partial[b] += s
	})
	var sum float64
	for _, s := range partial {
		sum += s
	}
	return sum
}

func okInteger(x []int) int {
	var n int
	var mu sync.Mutex
	parallel.For(len(x), func(i int) {
		mu.Lock()
		n += x[i]
		mu.Unlock()
	})
	return n
}

func okOutsideBody(x []float64) float64 {
	var sum float64
	for _, v := range x {
		sum += v
	}
	body := func(lo, hi int) { sum += float64(hi - lo) }
	body(0, 1)
	return sum
}

func allowed(x []float64) float64 {
	var prod float64
	parallel.For(len(x), func(i int) {
		//statgate:allow orderedreduce — fixture: sanctioned site
		prod *= x[i]
	})
	return prod
}
