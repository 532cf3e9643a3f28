package calib

import (
	"errors"
	"math"
	"os"
	"testing"
	"time"
)

// TestRooflineSmoke: a tiny sweep returns positive, sorted,
// interpolatable throughput.
func TestRooflineSmoke(t *testing.T) {
	r := MeasureRoofline([][3]int{{16, 16, 16}, {64, 64, 64}}, time.Millisecond)
	if len(r.Points) != 2 {
		t.Fatalf("want 2 points, got %d", len(r.Points))
	}
	for _, p := range r.Points {
		if p.GFLOPS <= 0 {
			t.Fatalf("non-positive throughput at %dx%dx%d", p.M, p.K, p.N)
		}
	}
	if r.Points[0].Dim() >= r.Points[1].Dim() {
		t.Fatal("points not sorted by dim")
	}
	if got := r.GFLOPSAt(1); got != r.Points[0].GFLOPS {
		t.Fatalf("below-range lookup %v, want clamp to %v", got, r.Points[0].GFLOPS)
	}
	if got := r.GFLOPSAt(1e6); got != r.Points[1].GFLOPS {
		t.Fatalf("above-range lookup %v, want clamp to %v", got, r.Points[1].GFLOPS)
	}
	mid := r.GFLOPSAt(32)
	lo, hi := r.Points[0].GFLOPS, r.Points[1].GFLOPS
	if hi < lo {
		lo, hi = hi, lo
	}
	if mid < lo || mid > hi {
		t.Fatalf("interpolation %v outside [%v, %v]", mid, lo, hi)
	}
}

// TestStreamSmoke: the probe returns positive bandwidths at a small
// array size.
func TestStreamSmoke(t *testing.T) {
	s := MeasureStream(1<<16, 2)
	if s.CopyBW <= 0 || s.ScaleBW <= 0 || s.TriadBW <= 0 {
		t.Fatalf("non-positive bandwidth: %+v", s)
	}
}

// smokeSweep runs the 2-rank micro-sweep both halves below read, up to
// three times while the only complaint is ErrFitNonPhysical: the sweep
// α–β-fits real 1–64 KiB collective timings, and on a noisy host the
// fitted slope can come out non-positive.
func smokeSweep() (fits []CollectiveFit, err error) {
	for try := 0; try < 3; try++ {
		fits, err = MeasureCollectives(2, []int{1 << 8, 1 << 11, 1 << 14}, 3, 2)
		if !errors.Is(err, ErrFitNonPhysical) {
			break
		}
	}
	return fits, err
}

// TestCollectiveSweepSmoke is the hermetic half: a 2-rank micro-sweep
// yields one fit per op × dtype, each with a positive finite time
// recorded at every payload size. Timings too noisy to fit are a
// statement about the host's clock, not the code: a skip, not a
// failure.
func TestCollectiveSweepSmoke(t *testing.T) {
	fits, err := smokeSweep()
	if errors.Is(err, ErrFitNonPhysical) {
		t.Skipf("timings too noisy to fit on this host: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(fits) != 6 {
		t.Fatalf("want 6 fits (3 ops × 2 dtypes), got %d", len(fits))
	}
	for _, f := range fits {
		if len(f.Points) != 3 {
			t.Fatalf("%s/%s: %d points", f.Op, f.DType, len(f.Points))
		}
		for _, p := range f.Points {
			if !(p.Bytes > 0) || !(p.Sec > 0) || math.IsInf(p.Sec, 0) {
				t.Fatalf("%s/%s: point %+v is not positive and finite", f.Op, f.DType, p)
			}
		}
	}
}

// TestCollectiveSweepFitUsable is the wall-clock half — every fit
// converts to link parameters and the pooled link has a bandwidth —
// which depends on the timings carrying signal: CALIB_VALIDATE=1 runs
// it with the rest of the timing suite.
func TestCollectiveSweepFitUsable(t *testing.T) {
	if os.Getenv("CALIB_VALIDATE") == "" {
		t.Skip("timing suite; set CALIB_VALIDATE=1 to run")
	}
	fits, err := smokeSweep()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fits {
		if _, err := f.Params(); err != nil {
			t.Fatalf("%s/%s fit unusable: %v", f.Op, f.DType, err)
		}
	}
	for _, dtype := range []string{"fp32", "bf16"} {
		link, err := PooledLink(fits, dtype)
		if err != nil {
			t.Fatal(err)
		}
		if link.Bandwidth <= 0 || link.Launch < 0 {
			t.Fatalf("%s pooled link %+v", dtype, link)
		}
	}
}

// TestCollectiveSweepRejectsBadShapes: misconfigured sweeps error out
// before any World spins up.
func TestCollectiveSweepRejectsBadShapes(t *testing.T) {
	if _, err := MeasureCollectives(1, []int{4, 8}, 1, 1); err == nil {
		t.Fatal("1-rank sweep accepted")
	}
	if _, err := MeasureCollectives(4, []int{6, 12}, 1, 1); err == nil {
		t.Fatal("indivisible size accepted")
	}
	if _, err := MeasureCollectives(4, []int{8}, 1, 1); err == nil {
		t.Fatal("single-size sweep accepted")
	}
}
