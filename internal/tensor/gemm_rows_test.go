package tensor

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// padRows returns the (k×cols) matrix whose row pos[i] is row i of the
// (len(pos)×cols) rows and whose other rows are zero.
func padRows(rows []float32, pos []int, k, cols int) []float32 {
	out := make([]float32, k*cols)
	for i, p := range pos {
		copy(out[p*cols:(p+1)*cols], rows[i*cols:(i+1)*cols])
	}
	return out
}

// checkTARows holds MatMulTARows to MatMulTA over the zero-padded
// operands, bit for bit, in both acc modes, and returns the compact
// operands for callers that probe further.
func checkTARows(t *testing.T, r *rng.RNG, pos []int, m, k, n int) (a, b []float32) {
	t.Helper()
	a, b = randMat(r, len(pos)*m), randMat(r, len(pos)*n)
	aPad, bPad := padRows(a, pos, k, m), padRows(b, pos, k, n)
	for _, acc := range []bool{false, true} {
		got := randMat(r, m*n)
		want := append([]float32(nil), got...)
		MatMulTARows(got, a, b, pos, m, k, n, acc)
		MatMulTA(want, aPad, bPad, m, k, n, acc)
		if i, ok := bitsEqual32(got, want); !ok {
			t.Fatalf("m=%d k=%d n=%d rows=%d acc=%v: element %d = %v, the padded MatMulTA gives %v",
				m, k, n, len(pos), acc, i, got[i], want[i])
		}
	}
	return a, b
}

// randPositions returns rows distinct ascending positions in [0, k).
func randPositions(r *rng.RNG, rows, k int) []int {
	pos := append([]int(nil), r.Perm(k)[:rows]...)
	sort.Ints(pos)
	return pos
}

// span returns the positions lo, lo+1, …, hi-1.
func span(lo, hi int) []int {
	var pos []int
	for p := lo; p < hi; p++ {
		pos = append(pos, p)
	}
	return pos
}

// TestMatMulTARowsMatchesPadded: the subset weight gradient is bitwise
// the padded product's — over rows that straddle strip boundaries,
// strips left empty (first, middle and last), the axis's first and last
// row, no rows at all, a quarter of a 4096-row axis (the visible
// patches of a pretrain_compute batch: m = 48 pixels, n = 96 widths),
// and 7 rows of 300 — at shapes on both sides of the in-place B rule
// and with ragged panels.
func TestMatMulTARowsMatchesPadded(t *testing.T) {
	r := rng.New(31)
	cases := []struct {
		name string
		k    int
		pos  []int
	}{
		{"straddling strips", 3 * kcBlock, append(span(kcBlock-5, kcBlock+5), span(2*kcBlock-1, 2*kcBlock+1)...)},
		{"first strip empty", 3 * kcBlock, span(kcBlock, kcBlock+9)},
		{"middle strip empty", 3*kcBlock + 7, append(span(3, 11), span(2*kcBlock+2, 2*kcBlock+7)...)},
		{"last strips empty", 4 * kcBlock, span(40, 50)},
		{"first and last row", 2*kcBlock + 1, []int{0, kcBlock, 2 * kcBlock}},
		{"no rows", 300, nil},
		{"4096 by 1024", 4096, randPositions(r, 1024, 4096)},
		{"300 by 7", 300, randPositions(r, 7, 300)},
		{"one strip", 200, randPositions(r, 50, 200)},
	}
	shapes := [][2]int{{48, 96}, {7, 33}, {(bInPlaceMaxPanels + 1) * mr, 20}}
	for _, c := range cases {
		for _, sh := range shapes {
			checkTARows(t, r, c.pos, sh[0], c.k, sh[1])
		}
	}
}

// TestMatMulTARowsStripsByPosition: the 4096-by-1024 case tells strips
// cut on the padded axis from strips cut by subset row. Plain MatMulTA
// over the compact operands — kcBlock stored rows to a strip instead of
// the rows of kcBlock positions — gives other bits, so a MatMulTARows
// that cut there would fail TestMatMulTARowsMatchesPadded.
func TestMatMulTARowsStripsByPosition(t *testing.T) {
	r := rng.New(37)
	const m, k, n = 48, 4096, 96
	pos := randPositions(r, 1024, k)
	a, b := checkTARows(t, r, pos, m, k, n)
	got := make([]float32, m*n)
	want := make([]float32, m*n)
	MatMulTA(got, a, b, m, len(pos), n, false)
	MatMulTARows(want, a, b, pos, m, k, n, false)
	if _, same := bitsEqual32(got, want); same {
		t.Fatal("strips cut by subset row give the padded product's bits: the case does not tell the two cuts apart")
	}
}

// TestMatMulTARowsRejectsPositions: positions must ascend strictly
// inside the axis.
func TestMatMulTARowsRejectsPositions(t *testing.T) {
	c, ab := make([]float32, 4), make([]float32, 8)
	for name, pos := range map[string][]int{
		"descending":   {3, 1},
		"repeated":     {2, 2},
		"negative":     {-1, 0},
		"past the end": {0, 10},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s positions %v: no panic", name, pos)
				}
			}()
			MatMulTARows(c, ab, ab, pos, 2, 10, 2, false)
		}()
	}
}

// FuzzMatMulTARows draws an axis length, a row density and a shape and
// holds the subset product to the padded one.
func FuzzMatMulTARows(f *testing.F) {
	f.Add(uint16(4096), uint8(64), uint8(47), uint8(95), int64(1))
	f.Add(uint16(300), uint8(6), uint8(6), uint8(32), int64(2))
	f.Add(uint16(3*kcBlock), uint8(0), uint8(0), uint8(0), int64(3))
	f.Add(uint16(kcBlock), uint8(255), uint8(17), uint8(15), int64(4))
	f.Add(uint16(1), uint8(255), uint8(5), uint8(16), int64(5))
	f.Fuzz(func(t *testing.T, kRaw uint16, density, mRaw, nRaw uint8, seed int64) {
		k := int(kRaw)%4096 + 1
		r := rng.New(uint64(seed))
		var pos []int
		for p := 0; p < k; p++ {
			if r.Intn(256) < int(density) {
				pos = append(pos, p)
			}
		}
		checkTARows(t, r, pos, int(mRaw)%64+1, k, int(nRaw)%100+1)
	})
}
