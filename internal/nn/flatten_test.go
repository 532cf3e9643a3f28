package nn_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/vit"
)

// vitParams builds the real parameter set a small vit.Config produces
// (through the MAE model, exactly as the distributed trainer sees it) —
// the shapes FlattenParams must handle in production.
func vitParams() []*nn.Param {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	cfg := mae.Config{Encoder: enc, DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75}
	return mae.New(cfg, rng.New(3)).Params()
}

// fuzzShapes derives an arbitrary parameter set from a seed, values and
// gradients filled. Seed 0 is special-cased to the live ViT/MAE shapes
// so the fuzz corpus always covers what vit.Config actually produces.
func fuzzShapes(seed uint64) []*nn.Param {
	r := rng.New(seed + 1)
	var ps []*nn.Param
	if seed == 0 {
		ps = vitParams()
	} else {
		for i, n := 0, 1+int(r.Uint64()%9); i < n; i++ {
			var shape []int
			for d := 0; d <= int(r.Uint64()%3); d++ {
				shape = append(shape, 1+int(r.Uint64()%17))
			}
			ps = append(ps, nn.NewParam("f", shape...))
		}
	}
	for _, p := range ps {
		r.FillUniform(p.Value, -2, 2)
		r.FillUniform(p.Grad, -0.1, 0.1)
	}
	return ps
}

// concat copies one field of every parameter, in order — what the flat
// buffer must hold after flattening.
func concat(ps []*nn.Param, field func(*nn.Param) []float32) []float32 {
	var out []float32
	for _, p := range ps {
		out = append(out, field(p)...)
	}
	return out
}

func values(p *nn.Param) []float32 { return p.Value }
func grads(p *nn.Param) []float32  { return p.Grad }

// checkFlattened asserts FlattenParams' contract on its result: the
// windows tile [0, CountParams) of each buffer in Params() order
// (pointer identity, so they are views and not copies), cap == len on
// every window, the contents are want bitwise and the pad tail is
// exactly zero.
func checkFlattened(t *testing.T, ps []*nn.Param, flatW, flatG, wantW, wantG []float32, n int) {
	t.Helper()
	dim := nn.CountParams(ps)
	if len(flatW) != n || len(flatG) != n {
		t.Fatalf("buffers are %d/%d long, want %d", len(flatW), len(flatG), n)
	}
	off := 0
	for i, p := range ps {
		for _, f := range []struct {
			name       string
			data, flat []float32
		}{{"Value", p.Value, flatW}, {"Grad", p.Grad, flatG}} {
			if cap(f.data) != len(f.data) {
				t.Fatalf("param %d %s: cap %d != len %d — an append would write into the neighbour", i, f.name, cap(f.data), len(f.data))
			}
			if len(f.data) > 0 && &f.data[0] != &f.flat[off] {
				t.Fatalf("param %d %s does not start at flat element %d", i, f.name, off)
			}
		}
		if len(p.Grad) != len(p.Value) {
			t.Fatalf("param %d: %d values, %d gradients", i, len(p.Value), len(p.Grad))
		}
		off += p.NumEl()
	}
	if off != dim || dim != len(wantW) {
		t.Fatalf("windows cover %d elements, CountParams says %d, the set had %d", off, dim, len(wantW))
	}
	for i := 0; i < dim; i++ {
		if math.Float32bits(flatW[i]) != math.Float32bits(wantW[i]) || math.Float32bits(flatG[i]) != math.Float32bits(wantG[i]) {
			t.Fatalf("flat element %d: value %v grad %v, want %v / %v", i, flatW[i], flatG[i], wantW[i], wantG[i])
		}
	}
	for i := dim; i < n; i++ {
		if math.Float32bits(flatW[i]) != 0 || math.Float32bits(flatG[i]) != 0 {
			t.Fatalf("pad element %d = %v / %v, want +0", i, flatW[i], flatG[i])
		}
	}
}

// TestFlattenParamsContract: views not copies, in both directions, and
// flattening a flattened set is the identity on everything observable.
func TestFlattenParamsContract(t *testing.T) {
	ps := fuzzShapes(0)
	dim := nn.CountParams(ps)
	wantW, wantG := concat(ps, values), concat(ps, grads)
	n := dim + 5
	flatW, flatG := nn.FlattenParams(ps, n)
	checkFlattened(t, ps, flatW, flatG, wantW, wantG, n)

	// A write through a tensor is visible in the flat buffer, and the
	// reverse.
	last := ps[len(ps)-1]
	last.Value[last.NumEl()-1] = 42
	ps[0].Grad[0] = -7
	if flatW[dim-1] != 42 || flatG[0] != -7 {
		t.Fatalf("tensor writes not visible in the flat buffers: %v %v", flatW[dim-1], flatG[0])
	}
	flatW[0], flatG[dim-1] = 3, 9
	if ps[0].Value[0] != 3 || last.Grad[last.NumEl()-1] != 9 {
		t.Fatal("flat writes not visible through the tensors")
	}

	// An append to one window reallocates instead of overwriting the
	// neighbour's first element.
	before := ps[1].Value[0]
	_ = append(ps[0].Value, before+1)
	if ps[1].Value[0] != before {
		t.Fatal("append through a window wrote into the next parameter")
	}

	// Flattening twice: new buffers, same contents, same contract (here
	// with no padding at all) — and ZeroGrads clears the flat gradient.
	wantW, wantG = concat(ps, values), concat(ps, grads)
	flatW, flatG = nn.FlattenParams(ps, dim)
	checkFlattened(t, ps, flatW, flatG, wantW, wantG, dim)
	nn.ZeroGrads(ps)
	for i, g := range flatG {
		if g != 0 {
			t.Fatalf("flat gradient element %d = %v after ZeroGrads", i, g)
		}
	}
}

// TestFlattenParamsTooShortPanics: a buffer that cannot hold the
// parameters fails loudly, under the package's panic prefix.
func TestFlattenParamsTooShortPanics(t *testing.T) {
	ps := fuzzShapes(7)
	defer func() {
		msg, _ := recover().(string)
		if !strings.HasPrefix(msg, "nn: ") {
			t.Fatalf("panic %q, want an nn: message", msg)
		}
	}()
	nn.FlattenParams(ps, nn.CountParams(ps)-1)
}

// FuzzFlattenParams fuzzes FlattenParams over arbitrary tensor shapes
// and pad lengths: re-homing a parameter set into the padded flat
// buffers must preserve every value and gradient bitwise, tile the
// space in order with cap-limited views, and leave the pad tail exactly
// zero — the invariant every distributed rank stands on.
func FuzzFlattenParams(f *testing.F) {
	f.Add(uint64(0), uint8(0))  // ViT shapes, no padding (a world that divides the dimension)
	f.Add(uint64(0), uint8(1))  // ViT shapes, the 3-rank world's one pad element
	f.Add(uint64(0), uint8(7))  // ViT shapes, an 8-rank world's worst case
	f.Add(uint64(1), uint8(0))  // degenerate small set
	f.Add(uint64(7), uint8(14)) // remainder-heavy
	f.Add(uint64(9), uint8(31)) // pad longer than some tensors
	f.Fuzz(func(t *testing.T, seed uint64, pad uint8) {
		ps := fuzzShapes(seed)
		wantW, wantG := concat(ps, values), concat(ps, grads)
		n := nn.CountParams(ps) + int(pad)
		flatW, flatG := nn.FlattenParams(ps, n)
		checkFlattened(t, ps, flatW, flatG, wantW, wantG, n)
	})
}
