package serve

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/geodata"
	"repro/internal/golden"
	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/vit"
)

// TestFillGolden pins every bit of a mixed Embed/Classify/Segment batch
// served at one and four workers, from fp32 weights and from weights
// rounded to bf16 (the same fp32 GEMM over bf16-valued weights).
func TestFillGolden(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	fill := func(bf16 bool) uint64 {
		m := tinyModel(7)
		if bf16 {
			m.RoundBF16()
		}
		img := imageFn(m, 25)
		const n = 8
		reqs, resps := make([]*Request, n), make([]*Response, n)
		for i := range reqs {
			reqs[i] = &Request{ID: uint64(i), Kind: mixedKinds[i%len(mixedKinds)], Img: img(i)}
			resps[i] = &Response{ID: uint64(i), Kind: reqs[i].Kind}
		}
		m.Fill(nn.NewInferCtx(), reqs, resps)
		var parts []any
		for _, r := range resps {
			parts = append(parts, r.Embedding, r.Logits, r.Labels)
		}
		return golden.Fingerprint(parts...)
	}
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range []struct {
			bf16 bool
			want uint64
		}{{false, 0x6a9e799f84c4bd10}, {true, 0xd110b2dcd41ff76a}} {
			if got := fill(c.bf16); got != c.want {
				t.Errorf("GOMAXPROCS=%d bf16=%v: fingerprint %#x, want %#x", procs, c.bf16, got, c.want)
			}
		}
	}
}

// TestFillPoisonedArena: a worker's arena hands out slots holding the
// previous batch's leftovers, so every kernel of the serving pass must
// overwrite what it takes. On an arena whose kept and scratch stacks
// are poisoned with NaN in slots larger than any take, a mixed batch's
// replies (fp32 and bf16 weights) are bitwise those on a fresh arena,
// and the arena does not grow.
func TestFillPoisonedArena(t *testing.T) {
	const slots, size = 128, 1 << 14
	for _, bf16 := range []bool{false, true} {
		m := tinyModel(7)
		if bf16 {
			m.RoundBF16()
		}
		img := imageFn(m, 26)
		fill := func(ctx *nn.Arena) uint64 {
			const n = 6
			reqs, resps := make([]*Request, n), make([]*Response, n)
			for i := range reqs {
				reqs[i] = &Request{ID: uint64(i), Kind: mixedKinds[i%len(mixedKinds)], Img: img(i)}
				resps[i] = &Response{ID: uint64(i), Kind: reqs[i].Kind}
			}
			m.Fill(ctx, reqs, resps)
			var parts []any
			for _, r := range resps {
				parts = append(parts, r.Embedding, r.Logits, r.Labels)
			}
			return golden.Fingerprint(parts...)
		}
		poisoned := nn.NewInferCtx()
		for i := 0; i < slots; i++ {
			for _, buf := range [][]float32{poisoned.Take(size), poisoned.Scratch(size)} {
				for j := range buf {
					buf[j] = float32(math.NaN())
				}
			}
		}
		if got, want := fill(poisoned), fill(nn.NewInferCtx()); got != want {
			t.Errorf("bf16=%v: poisoned arena fingerprint %#x, fresh arena %#x", bf16, got, want)
		}
		if poisoned.Bytes() != 8*slots*size {
			t.Errorf("bf16=%v: a take outgrew the poisoned slots", bf16)
		}
	}
}

// TestFillArenaFootprint pins an engine's frozen arena after a mixed
// batch of 8 on the ViT-1B analog (64-pixel images in 4-pixel patches,
// serve_mixed's model) to its closed form in floats, over R = 8·T rows
// of width W and MLP width H:
//
//	2·R·P + 8·W  +  2·R·W + max(3·R·W, R·H) + max(R·W, R·H)
//
// Kept: the images and the patches (P = patch pixels), and the pooled
// rows. Scratch: the stack's input, the embedding that the blocks
// update in place, and one block's working set — a (R × W) slot that
// later holds the final norm's output, the fused QKV output then FC1's,
// the merged heads then GELU's output. Every block reuses that set, and
// the heads' per-request buffers fit inside it.
func TestFillArenaFootprint(t *testing.T) {
	enc, err := vit.Analog("ViT-1B", 64, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := NewModel(mae.Default(enc), 3)
	m.AttachHeads(synthHead(enc.Width, 5, 101), synthHead(enc.Width, geodata.SegClasses, 102))
	img := imageFn(m, 27)
	const n = 8
	reqs, resps := make([]*Request, n), make([]*Response, n)
	for i := range reqs {
		reqs[i] = &Request{ID: uint64(i), Kind: mixedKinds[i%len(mixedKinds)], Img: img(i)}
		resps[i] = &Response{ID: uint64(i), Kind: reqs[i].Kind}
	}
	ctx := nn.NewInferCtx()
	m.Fill(ctx, reqs, resps)
	r, w, h, p := n*enc.Tokens(), enc.Width, enc.MLP, enc.PatchDim()
	floats := 2*r*p + n*w + 2*r*w + max(3*r*w, r*h) + max(r*w, r*h)
	if got := ctx.Bytes(); got != 4*floats {
		t.Fatalf("a batch of %d holds %d arena bytes, want %d (%d floats)", n, got, 4*floats, floats)
	}
	t.Logf("%.2f MiB per engine at batch %d", float64(4*floats)/(1<<20), n)
}
