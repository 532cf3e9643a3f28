package calib

import (
	"time"

	"repro/internal/parallel"
)

// StreamResult is the STREAM-style memory-bandwidth probe: sustained
// bytes/s for the three classic kernels over the parallel worker pool.
// TriadBW is the figure consumers use (hw.Machine.HBMBandwidth): triad
// (a = b + q·c) is the closest analog of the optimizer's
// two-reads-one-write elementwise traffic.
type StreamResult struct {
	// Elems is the per-array float32 element count the probe ran at.
	Elems int
	// Bytes/s, best over the measurement windows.
	CopyBW, ScaleBW, TriadBW float64
}

// MeasureStream runs copy (c = a), scale (b = q·c) and triad
// (a = b + q·c) over three float32 arrays of elems elements, reps
// windows each, on the parallel worker pool, and keeps each kernel's
// best window. Arrays should comfortably exceed the last-level cache
// (the default in Measure is 2²⁴ elements = 64 MiB per array) so the
// result reflects memory, not cache, bandwidth.
func MeasureStream(elems, reps int) StreamResult {
	if elems < 1 {
		elems = 1
	}
	if reps < 1 {
		reps = 1
	}
	a := make([]float32, elems)
	b := make([]float32, elems)
	c := make([]float32, elems)
	for i := range a {
		a[i] = 1
		b[i] = 2
	}
	const q = float32(3.1)
	run := func(bytesMoved float64, body func()) float64 {
		body() // warm the pool and fault the pages
		var best float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			body()
			if bw := bytesMoved / time.Since(t0).Seconds(); bw > best {
				best = bw
			}
		}
		return best
	}
	res := StreamResult{Elems: elems}
	res.CopyBW = run(2*4*float64(elems), func() {
		parallel.Range(elems, func(lo, hi int) { copy(c[lo:hi], a[lo:hi]) })
	})
	res.ScaleBW = run(2*4*float64(elems), func() {
		parallel.Range(elems, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				b[i] = q * c[i]
			}
		})
	})
	res.TriadBW = run(3*4*float64(elems), func() {
		parallel.Range(elems, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a[i] = b[i] + float32(q*c[i])
			}
		})
	})
	return res
}
