package parallel

import (
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// TestMain raises GOMAXPROCS so the persistent pool's parallel dispatch
// path is exercised even on single-CPU CI machines (goroutines then
// timeshare one core, which still shakes out claiming/completion races).
func TestMain(m *testing.M) {
	if runtime.GOMAXPROCS(0) < 4 {
		runtime.GOMAXPROCS(4)
	}
	os.Exit(m.Run())
}

func TestSplitCoversRangeExactly(t *testing.T) {
	cases := []struct{ n, p int }{
		{0, 1}, {1, 1}, {1, 4}, {7, 3}, {8, 8}, {100, 7}, {1024, 16}, {3, 5},
	}
	for _, c := range cases {
		covered := make([]bool, c.n)
		prevHi := 0
		for w := 0; w < c.p; w++ {
			lo, hi := Split(c.n, c.p, w)
			if lo != prevHi {
				t.Fatalf("n=%d p=%d w=%d: lo=%d, want contiguous from %d", c.n, c.p, w, lo, prevHi)
			}
			for i := lo; i < hi; i++ {
				if covered[i] {
					t.Fatalf("n=%d p=%d: index %d covered twice", c.n, c.p, i)
				}
				covered[i] = true
			}
			prevHi = hi
		}
		if prevHi != c.n {
			t.Fatalf("n=%d p=%d: covered up to %d", c.n, c.p, prevHi)
		}
	}
}

func TestSplitPropertyPartition(t *testing.T) {
	// Property: for any n, p >= 1, the p ranges partition [0, n).
	f := func(n uint16, p uint8) bool {
		nn := int(n % 5000)
		pp := int(p%64) + 1
		total := 0
		prevHi := 0
		for w := 0; w < pp; w++ {
			lo, hi := Split(nn, pp, w)
			if lo != prevHi || hi < lo {
				return false
			}
			total += hi - lo
			prevHi = hi
		}
		return total == nn && prevHi == nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitBalance(t *testing.T) {
	// No worker's range may exceed any other's by more than one item.
	n, p := 1000, 7
	minSz, maxSz := n, 0
	for w := 0; w < p; w++ {
		lo, hi := Split(n, p, w)
		sz := hi - lo
		if sz < minSz {
			minSz = sz
		}
		if sz > maxSz {
			maxSz = sz
		}
	}
	if maxSz-minSz > 1 {
		t.Fatalf("imbalance: min=%d max=%d", minSz, maxSz)
	}
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	const n = 10000
	var hits [n]atomic.Int32
	ForGrain(n, 16, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestForZeroAndNegative(t *testing.T) {
	ran := false
	For(0, func(int) { ran = true })
	For(-5, func(int) { ran = true })
	if ran {
		t.Fatal("body ran for non-positive n")
	}
}

func TestRangeCoversAll(t *testing.T) {
	const n = 4097
	var sum atomic.Int64
	RangeGrain(n, 8, func(lo, hi int) {
		var local int64
		for i := lo; i < hi; i++ {
			local += int64(i)
		}
		sum.Add(local)
	})
	want := int64(n) * int64(n-1) / 2
	if sum.Load() != want {
		t.Fatalf("sum=%d want %d", sum.Load(), want)
	}
}

func TestRangeSerialSmall(t *testing.T) {
	// Below the grain the body must be invoked exactly once, covering all.
	calls := 0
	RangeGrain(100, 1024, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("expected single full range, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("calls=%d want 1", calls)
	}
}

// TestNestedParallel exercises a parallel loop whose body issues
// further parallel loops (the attention layer's shape: ForGrain over
// heads, GEMM RangeGrain inside). The submitter-helps design must
// complete every level without deadlock or lost iterations.
func TestNestedParallel(t *testing.T) {
	const outer, inner = 64, 2048
	var sum atomic.Int64
	ForGrain(outer, 1, func(i int) {
		RangeGrain(inner, 64, func(lo, hi int) {
			var local int64
			for j := lo; j < hi; j++ {
				local += int64(j)
			}
			sum.Add(local)
		})
	})
	want := int64(outer) * int64(inner) * int64(inner-1) / 2
	if sum.Load() != want {
		t.Fatalf("sum=%d want %d", sum.Load(), want)
	}
}

// TestPoolReusePressure hammers the pool with many short jobs so that
// recycled job descriptors and stale channel entries interleave; every
// job must still visit each index exactly once.
func TestPoolReusePressure(t *testing.T) {
	const rounds, n = 500, 256
	hits := make([]atomic.Int32, n)
	for r := 0; r < rounds; r++ {
		for i := range hits {
			hits[i].Store(0)
		}
		ForGrain(n, 1, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("round %d: index %d visited %d times", r, i, got)
			}
		}
	}
}

func BenchmarkForGrain(b *testing.B) {
	data := make([]float32, 1<<20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Range(len(data), func(lo, hi int) {
			for j := lo; j < hi; j++ {
				data[j] += 1
			}
		})
	}
}

// BenchmarkPoolDispatchSmall measures per-call overhead of a small
// parallel loop. With the persistent pool this must report ~0 allocs/op
// (the pre-pool implementation spawned fresh goroutines every call).
func BenchmarkPoolDispatchSmall(b *testing.B) {
	var sink atomic.Int64
	body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RangeGrain(4096, 512, body)
	}
}

// BenchmarkDispatchWake measures what handing work to a parked pool
// worker costs: a 2-task ForGrain job whose tasks each spin for a fixed
// time, reported as the job's wall time (ns/op) and as wall time ÷
// task time. Two tasks that start together read a ratio of 1; the
// submitter running both reads 2; anything above is the worker's
// wake-up latency. BenchmarkPoolDispatchSmall cannot see this cost: its
// empty body is finished by the submitter before any worker wakes.
func BenchmarkDispatchWake(b *testing.B) {
	if runtime.GOMAXPROCS(0) < 2 {
		b.Skip("a 2-task job needs GOMAXPROCS ≥ 2")
	}
	for _, spin := range []time.Duration{25, 50, 100, 200} {
		spin *= time.Microsecond
		b.Run(fmt.Sprintf("spin%dus", spin.Microseconds()), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ForGrain(2, 1, func(int) {
					for t0 := time.Now(); time.Since(t0) < spin; {
					}
				})
			}
			b.ReportMetric(float64(b.Elapsed())/float64(b.N)/float64(spin), "wall/task")
		})
	}
}

// BenchmarkPoolDispatchSerial is the grain-gated inline path: zero
// dispatch work at all.
func BenchmarkPoolDispatchSerial(b *testing.B) {
	var sink int64
	body := func(lo, hi int) { sink += int64(hi - lo) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RangeGrain(64, 1024, body)
	}
	_ = sink
}
