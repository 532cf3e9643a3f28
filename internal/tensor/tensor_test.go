package tensor

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/rng"
)

func TestNewShapes(t *testing.T) {
	a := New(2, 3, 4)
	if a.NumEl() != 24 || a.Rank() != 3 || a.Dim(1) != 3 {
		t.Fatalf("bad tensor: %v", a.Shape())
	}
	for _, v := range a.Data {
		if v != 0 {
			t.Fatal("New not zero-filled")
		}
	}
}

func TestFromSliceValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(make([]float32, 5), 2, 3)
}

func TestReshapeInference(t *testing.T) {
	a := New(4, 6)
	b := a.Reshape(2, -1)
	if b.Dim(0) != 2 || b.Dim(1) != 12 {
		t.Fatalf("got %v", b.Shape())
	}
	// Shares data.
	b.Data[0] = 42
	if a.Data[0] != 42 {
		t.Fatal("Reshape did not share data")
	}
}

func TestReshapeErrors(t *testing.T) {
	a := New(4, 6)
	for _, shape := range [][]int{{5, 5}, {-1, -1}, {7, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Reshape(%v) did not panic", shape)
				}
			}()
			a.Reshape(shape...)
		}()
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	a := New(3, 4, 5)
	a.Set(7.5, 2, 1, 3)
	if a.At(2, 1, 3) != 7.5 {
		t.Fatal("At/Set mismatch")
	}
	// Row-major offset: ((2*4)+1)*5+3 = 48.
	if a.Data[48] != 7.5 {
		t.Fatal("offset not row-major")
	}
}

func TestAtBoundsPanic(t *testing.T) {
	a := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range At did not panic")
		}
	}()
	a.At(2, 0)
}

func TestCloneIndependent(t *testing.T) {
	a := New(2, 2)
	a.Fill(1)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
	if !slices.Equal(a.Shape(), b.Shape()) {
		t.Fatal("Clone changed shape")
	}
}

func TestRow(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	r := a.Row(1)
	if r[0] != 4 || r[2] != 6 {
		t.Fatalf("Row(1) = %v", r)
	}
	r[0] = 40
	if a.At(1, 0) != 40 {
		t.Fatal("Row is not a view")
	}
}

func TestXavierInitRange(t *testing.T) {
	a := New(64, 64)
	a.XavierInit(rng.New(1), 64, 64)
	limit := math.Sqrt(6.0 / 128.0)
	for _, v := range a.Data {
		if float64(v) < -limit || float64(v) >= limit {
			t.Fatalf("value %v outside Xavier bound %v", v, limit)
		}
	}
	if Mean(a.Data) > 0.02 || Mean(a.Data) < -0.02 {
		t.Fatalf("Xavier mean %v not centered", Mean(a.Data))
	}
}

func TestReshapeQuickProperty(t *testing.T) {
	// Property: reshape preserves element count and data identity.
	f := func(r, c uint8) bool {
		rr, cc := int(r%16)+1, int(c%16)+1
		a := New(rr, cc)
		b := a.Reshape(cc, rr)
		return b.NumEl() == a.NumEl() && &b.Data[0] == &a.Data[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStringDoesNotPanic(t *testing.T) {
	_ = New(2, 2).String()
	_ = New(100).String()
}
