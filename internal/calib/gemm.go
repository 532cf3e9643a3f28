package calib

import (
	"math"
	"sort"
	"time"

	"repro/internal/perfmodel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// GEMMPoint is one measured shape on the roofline: the blocked kernel's
// achieved GFLOP/s at m×k×n.
type GEMMPoint struct {
	M, K, N int
	GFLOPS  float64
}

// Dim is the shape's characteristic dimension ∛(m·k·n): the cube edge
// with the same FLOP volume, the x-axis of the MFU curve.
func (p GEMMPoint) Dim() float64 {
	return math.Cbrt(float64(p.M) * float64(p.K) * float64(p.N))
}

// Roofline is the measured GEMM throughput curve, sorted by Dim.
type Roofline struct {
	Points []GEMMPoint
}

// PeakGFLOPS returns the best measured throughput — the roofline's
// flat top, the calibrated stand-in for a datasheet peak.
func (r Roofline) PeakGFLOPS() float64 {
	var peak float64
	for _, p := range r.Points {
		if p.GFLOPS > peak {
			peak = p.GFLOPS
		}
	}
	return peak
}

// GFLOPSAt interpolates achieved throughput at a characteristic
// dimension: piecewise linear in log(dim) between measured points,
// clamped to the end points outside the swept range.
func (r Roofline) GFLOPSAt(dim float64) float64 {
	if len(r.Points) == 0 || dim <= 0 {
		return 0
	}
	pts := r.Points
	if dim <= pts[0].Dim() {
		return pts[0].GFLOPS
	}
	last := pts[len(pts)-1]
	if dim >= last.Dim() {
		return last.GFLOPS
	}
	for i := 1; i < len(pts); i++ {
		lo, hi := pts[i-1], pts[i]
		if dim > hi.Dim() {
			continue
		}
		d0, d1 := math.Log(lo.Dim()), math.Log(hi.Dim())
		t := (math.Log(dim) - d0) / (d1 - d0)
		return lo.GFLOPS + t*(hi.GFLOPS-lo.GFLOPS)
	}
	return last.GFLOPS
}

// DefaultGEMMShapes is the full calibration sweep: the BENCH_gemm
// acceptance cubes and ViT rectangles, extended downward with the small
// cubes the executed test-scale models live at.
func DefaultGEMMShapes() [][3]int {
	return [][3]int{
		{16, 16, 16}, {32, 32, 32}, {64, 64, 64},
		{128, 128, 128}, {256, 256, 256}, {512, 512, 512},
		{196, 768, 768}, {196, 768, 3072},
	}
}

// QuickGEMMShapes is the reduced sweep for smoke runs: small cubes
// only, still bracketing the validation models' characteristic dims.
func QuickGEMMShapes() [][3]int {
	return [][3]int{{16, 16, 16}, {32, 32, 32}, {64, 64, 64}, {128, 128, 128}, {256, 256, 256}}
}

// MeasureRoofline times tensor.MatMul at each shape: iterations double
// until a timing window of at least minTime accumulates, three windows
// run per shape, and the best window's GFLOP/s is kept (the standard
// roofline discipline — the minimum-noise sample estimates capability).
func MeasureRoofline(shapes [][3]int, minTime time.Duration) Roofline {
	r := Roofline{}
	g := rng.New(1)
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := make([]float32, m*k)
		b := make([]float32, k*n)
		c := make([]float32, m*n)
		g.FillUniform(a, -1, 1)
		g.FillUniform(b, -1, 1)
		tensor.MatMul(c, a, b, m, k, n, false) // warm the kernel path
		flops := 2 * float64(m) * float64(k) * float64(n)
		var best float64
		for w := 0; w < 3; w++ {
			iters := 1
			for {
				t0 := time.Now()
				for i := 0; i < iters; i++ {
					tensor.MatMul(c, a, b, m, k, n, false)
				}
				el := time.Since(t0)
				if el >= minTime {
					if gf := flops * float64(iters) / el.Seconds() / 1e9; gf > best {
						best = gf
					}
					break
				}
				iters *= 2
			}
		}
		r.Points = append(r.Points, GEMMPoint{M: m, K: k, N: n, GFLOPS: best})
	}
	sort.Slice(r.Points, func(i, j int) bool { return r.Points[i].Dim() < r.Points[j].Dim() })
	return r
}

// CharacteristicGEMMDim reduces a workload to the single operating
// point its MFU is read at: the FLOP-weighted log-mean of the
// characteristic dimensions of the workload's dominant GEMM families —
// per encoder block, the (B·T)×W×W attention/projection GEMMs
// (8·B·T·W² forward FLOPs) and the (B·T)×W×M MLP GEMMs (4·B·T·W·M),
// and the decoder's counterparts over the full token grid when MAE.
// The attention-score terms are omitted: they are small at the widths
// where this matters and have no fixed GEMM shape.
func CharacteristicGEMMDim(w perfmodel.Workload) float64 {
	type fam struct {
		m, k, n int
		weight  float64
	}
	bt := float64(w.LocalBatch * w.EncoderTokens)
	wd := float64(w.Model.Width)
	ml := float64(w.Model.MLP)
	depth := float64(w.Model.Depth)
	fams := []fam{
		{w.LocalBatch * w.EncoderTokens, w.Model.Width, w.Model.Width, depth * 8 * bt * wd * wd},
		{w.LocalBatch * w.EncoderTokens, w.Model.Width, w.Model.MLP, depth * 4 * bt * wd * ml},
	}
	if w.MAE {
		dw, dd := w.DecoderGeometry()
		dbt := float64(w.LocalBatch * w.Model.Tokens())
		fams = append(fams,
			fam{w.LocalBatch * w.Model.Tokens(), dw, dw, float64(dd) * 8 * dbt * float64(dw) * float64(dw)},
			fam{w.LocalBatch * w.Model.Tokens(), dw, 4 * dw, float64(dd) * 4 * dbt * float64(dw) * float64(4*dw)},
		)
	}
	var logSum, wSum float64
	for _, f := range fams {
		if f.m <= 0 || f.k <= 0 || f.n <= 0 || f.weight <= 0 {
			continue
		}
		dim := math.Cbrt(float64(f.m) * float64(f.k) * float64(f.n))
		logSum += f.weight * math.Log(dim)
		wSum += f.weight
	}
	//statgate:allow floateq — exact: wSum stays 0 only when no family passed the filter
	if wSum == 0 {
		return 0
	}
	return math.Exp(logSum / wSum)
}
