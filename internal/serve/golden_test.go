package serve

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/golden"
	"repro/internal/nn"
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
// overwrite what it takes. On an arena poisoned with NaN in slots
// larger than any take, a mixed batch's replies (fp32 and bf16 weights)
// are bitwise those on a fresh arena, and the arena does not grow.
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
			buf := poisoned.Take(size)
			for j := range buf {
				buf[j] = float32(math.NaN())
			}
		}
		if got, want := fill(poisoned), fill(nn.NewInferCtx()); got != want {
			t.Errorf("bf16=%v: poisoned arena fingerprint %#x, fresh arena %#x", bf16, got, want)
		}
		if poisoned.Bytes() != 4*slots*size {
			t.Errorf("bf16=%v: a take outgrew the poisoned slots", bf16)
		}
	}
}
