package tensor

import (
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// refLayerNorm is the float64 oracle the float32 kernels replaced.
func refLayerNorm(y, xhat, invStd []float64, x, g, b []float32, rows, d int, eps float64) {
	for r := 0; r < rows; r++ {
		var mean, variance float64
		for _, v := range x[r*d : (r+1)*d] {
			mean += float64(v)
		}
		mean /= float64(d)
		for _, v := range x[r*d : (r+1)*d] {
			variance += (float64(v) - mean) * (float64(v) - mean)
		}
		inv := 1 / math.Sqrt(variance/float64(d)+eps)
		invStd[r] = inv
		for j, v := range x[r*d : (r+1)*d] {
			xhat[r*d+j] = (float64(v) - mean) * inv
			y[r*d+j] = float64(g[j])*xhat[r*d+j] + float64(b[j])
		}
	}
}

func bitsEqual32(a, b []float32) (int, bool) {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// lnShapes covers widths below, at and above the 8-lane body, ragged
// and whole, and the benchmark's 48 and 96.
var lnShapes = []struct{ rows, d int }{{1, 1}, {3, 5}, {2, 8}, {5, 13}, {7, 16}, {4, 24}, {9, 47}, {33, 48}, {6, 96}, {3, 200}}

// TestLayerNormAccuracy holds forward and backward to the float64
// oracle.
func TestLayerNormAccuracy(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, sh := range lnShapes {
		rows, d := sh.rows, sh.d
		x, g, b, dy := randSlice(r, rows*d, 2), randSlice(r, d, 1), randSlice(r, d, 1), randSlice(r, rows*d, 1)
		for i := range x {
			x[i] += 3 // a mean well away from zero
		}
		const eps = 1e-6
		y, xhat, invStd, dx := make([]float32, rows*d), make([]float32, rows*d), make([]float32, rows), make([]float32, rows*d)
		LayerNorm(y, xhat, invStd, x, g, b, rows, d, eps)
		LayerNormBackward(dx, dy, xhat, invStd, g, rows, d)

		y64, xh64, is64 := make([]float64, rows*d), make([]float64, rows*d), make([]float64, rows)
		refLayerNorm(y64, xh64, is64, x, g, b, rows, d, eps)
		for i := range y {
			if math.Abs(float64(y[i])-y64[i]) > 2e-5*(1+math.Abs(y64[i])) {
				t.Fatalf("rows=%d d=%d: y[%d] = %v, want %v", rows, d, i, y[i], y64[i])
			}
		}
		for ri := 0; ri < rows; ri++ {
			if d == 1 {
				continue // variance 0: 1/σ is 1/√eps, x̂ is 0·that
			}
			var s1, s2 float64
			for j := 0; j < d; j++ {
				dxh := float64(dy[ri*d+j]) * float64(g[j])
				s1 += dxh
				s2 += dxh * xh64[ri*d+j]
			}
			for j := 0; j < d; j++ {
				dxh := float64(dy[ri*d+j]) * float64(g[j])
				want := is64[ri] * (dxh - s1/float64(d) - xh64[ri*d+j]*s2/float64(d))
				if got := float64(dx[ri*d+j]); math.Abs(got-want) > 1e-4*(1+math.Abs(want)) {
					t.Fatalf("rows=%d d=%d: dx[%d][%d] = %v, want %v", rows, d, ri, j, got, want)
				}
			}
		}
	}
}

// TestLayerNormAsmMatchesGeneric holds the dispatched kernels to the
// scalar lanes bit for bit (trivially true on purego builds), with and
// without the x̂/invStd outputs, and the affine pass over the cached x̂
// to the forward's y.
func TestLayerNormAsmMatchesGeneric(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for _, sh := range lnShapes {
		rows, d := sh.rows, sh.d
		x, g, b, dy := randSlice(r, rows*d, 2), randSlice(r, d, 1), randSlice(r, d, 1), randSlice(r, rows*d, 1)
		y, xhat, invStd := make([]float32, rows*d), make([]float32, rows*d), make([]float32, rows)
		yGo, xhatGo, invStdGo := make([]float32, rows*d), make([]float32, rows*d), make([]float32, rows)
		layerNormRows(y, xhat, invStd, x, g, b, rows, d, 1e-6)
		layerNormRowsGo(yGo, xhatGo, invStdGo, x, g, b, rows, d, 1e-6)
		for _, pair := range [][2][]float32{{y, yGo}, {xhat, xhatGo}, {invStd, invStdGo}} {
			if i, ok := bitsEqual32(pair[0], pair[1]); !ok {
				t.Fatalf("rows=%d d=%d: forward element %d: kernel %v != scalar lane %v", rows, d, i, pair[0][i], pair[1][i])
			}
		}
		yInfer := make([]float32, rows*d)
		layerNormRows(yInfer, nil, nil, x, g, b, rows, d, 1e-6)
		if i, ok := bitsEqual32(yInfer, y); !ok {
			t.Fatalf("rows=%d d=%d: y[%d] changes when x̂/invStd are not requested", rows, d, i)
		}

		yAff, yAffGo := make([]float32, rows*d), make([]float32, rows*d)
		layerNormAffineRows(yAff, xhat, g, b, rows, d)
		layerNormAffineRowsGo(yAffGo, xhat, g, b, rows, d)
		if i, ok := bitsEqual32(yAff, yAffGo); !ok {
			t.Fatalf("rows=%d d=%d: affine y[%d]: kernel %v != scalar lane %v", rows, d, i, yAff[i], yAffGo[i])
		}
		if i, ok := bitsEqual32(yAff, y); !ok {
			t.Fatalf("rows=%d d=%d: y[%d] regenerated from x̂ differs from the forward's", rows, d, i)
		}

		dx, dxGo := make([]float32, rows*d), make([]float32, rows*d)
		layerNormBwdRows(dx, dy, xhat, invStd, g, rows, d)
		layerNormBwdRowsGo(dxGo, dy, xhat, invStd, g, rows, d)
		if i, ok := bitsEqual32(dx, dxGo); !ok {
			t.Fatalf("rows=%d d=%d: dx[%d]: kernel %v != scalar lane %v", rows, d, i, dx[i], dxGo[i])
		}

		dg, db := randSlice(r, d, 1), randSlice(r, d, 1) // the reductions accumulate
		dgGo, dbGo := append([]float32(nil), dg...), append([]float32(nil), db...)
		layerNormColSums(dg, db, dy, xhat, rows, d)
		layerNormColSumsGo(dgGo, dbGo, dy, xhat, rows, d)
		if i, ok := bitsEqual32(append(dg, db...), append(dgGo, dbGo...)); !ok {
			t.Fatalf("rows=%d d=%d: dγ/dβ element %d: kernel != scalar lane", rows, d, i)
		}
	}
}

// TestLayerNormChunkIndependence: a row's result never depends on
// which rows share its call or on how the pool cuts the rows and
// columns — every GOMAXPROCS gives the bits of a row-at-a-time run.
func TestLayerNormChunkIndependence(t *testing.T) {
	const rows, d = 3000, 48
	r := rand.New(rand.NewSource(63))
	x, g, b, dy := randSlice(r, rows*d, 2), randSlice(r, d, 1), randSlice(r, d, 1), randSlice(r, rows*d, 1)
	wantY, wantXh, wantIS, wantDx := make([]float32, rows*d), make([]float32, rows*d), make([]float32, rows), make([]float32, rows*d)
	for ri := 0; ri < rows; ri++ {
		lo, hi := ri*d, (ri+1)*d
		LayerNorm(wantY[lo:hi], wantXh[lo:hi], wantIS[ri:ri+1], x[lo:hi], g, b, 1, d, 1e-6)
		LayerNormBackward(wantDx[lo:hi], dy[lo:hi], wantXh[lo:hi], wantIS[ri:ri+1], g, 1, d)
	}
	wantDg, wantDb := make([]float32, d), make([]float32, d)
	layerNormColSumsGo(wantDg, wantDb, dy, wantXh, rows, d)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		y, xhat, invStd, dx := make([]float32, rows*d), make([]float32, rows*d), make([]float32, rows), make([]float32, rows*d)
		dg, db := make([]float32, d), make([]float32, d)
		LayerNorm(y, xhat, invStd, x, g, b, rows, d, 1e-6)
		LayerNormBackward(dx, dy, xhat, invStd, g, rows, d)
		LayerNormParamGrads(dg, db, dy, xhat, rows, d)
		for _, pair := range [][2][]float32{{y, wantY}, {xhat, wantXh}, {invStd, wantIS}, {dx, wantDx}, {dg, wantDg}, {db, wantDb}} {
			if i, ok := bitsEqual32(pair[0], pair[1]); !ok {
				t.Fatalf("GOMAXPROCS=%d: element %d differs from the row-at-a-time result", procs, i)
			}
		}
	}
}

// TestColumnSumsMatchesSerialLoop: the column-sum kernel adds the rows
// in order on every path — the 32-column body, the 8-column body and
// the scalar remainder — and however the pool cuts the columns, so a
// bias gradient is bitwise the serial loop at any width and worker
// count; it accumulates onto what dst held.
func TestColumnSumsMatchesSerialLoop(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	r := rand.New(rand.NewSource(64))
	for _, sh := range []struct{ rows, d int }{{1, 1}, {3, 7}, {5, 8}, {9, 31}, {4, 32}, {7, 33}, {11, 71}, {2050, 67}, {300, 192}, {4096, 288}} {
		rows, d := sh.rows, sh.d
		x, dst0 := randSlice(r, rows*d, 1), randSlice(r, d, 1)
		want := append([]float32(nil), dst0...)
		colSumsGo(want, x, rows, d)
		for _, procs := range []int{1, 2, 3} {
			runtime.GOMAXPROCS(procs)
			got := append([]float32(nil), dst0...)
			ColumnSums(got, x, rows, d)
			if i, ok := bitsEqual32(got, want); !ok {
				t.Fatalf("rows=%d d=%d GOMAXPROCS=%d: column %d = %v, serial loop gives %v", rows, d, procs, i, got[i], want[i])
			}
		}
	}
	for name, f := range map[string]func(){
		"bad shape":   func() { ColumnSums(make([]float32, 4), make([]float32, 4), 1, 0) },
		"short dst":   func() { ColumnSums(make([]float32, 3), make([]float32, 8), 2, 4) },
		"short input": func() { ColumnSums(make([]float32, 4), make([]float32, 7), 2, 4) },
	} {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.HasPrefix(msg, "tensor: ColumnSums") {
					t.Errorf("%s: panic %q, want a tensor: ColumnSums message", name, msg)
				}
			}()
			f()
		}()
	}
}

// TestLayerNormPoisonAndPanics: non-finite inputs poison their row,
// and shape errors are named tensor: panics.
func TestLayerNormPoisonAndPanics(t *testing.T) {
	const d = 16
	x := make([]float32, 2*d)
	x[d+3] = float32(math.Inf(1))
	g, b, y := make([]float32, d), make([]float32, d), make([]float32, 2*d)
	for i := range g {
		g[i] = 1
	}
	LayerNorm(y, nil, nil, x, g, b, 2, d, 1e-6)
	for j := 0; j < d; j++ {
		if v := float64(y[j]); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("clean row: y[%d] = %v", j, v)
		}
		if v := float64(y[d+j]); !math.IsNaN(v) && !math.IsInf(v, 0) {
			t.Fatalf("poisoned row: y[%d] = %v, want non-finite", j, v)
		}
	}
	for name, fn := range map[string]func(){
		"LayerNorm short y":         func() { LayerNorm(y[:d], nil, nil, x, g, b, 2, d, 1e-6) },
		"LayerNorm zero width":      func() { LayerNorm(y, nil, nil, x, g, b, 2, 0, 1e-6) },
		"LayerNormAffine short":     func() { LayerNormAffine(y, x[:d], g, b, 2, d) },
		"LayerNormBackward short":   func() { LayerNormBackward(y, x, x, g[:1], g, 2, d) },
		"LayerNormParamGrads short": func() { LayerNormParamGrads(g[:d-1], b, x, x, 2, d) },
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if len(msg) < 7 || msg[:7] != "tensor:" {
					t.Fatalf("%s: panic %q not tensor:-prefixed", name, msg)
				}
			}()
			fn()
		}()
	}
}
