package serve

import (
	"runtime"
	"testing"

	"repro/internal/golden"
	"repro/internal/nn"
)

// TestFillGolden pins every bit of a mixed Embed/Classify/Segment batch
// served at one and four workers, from fp32 weights and from weights
// rounded to bf16 (served through the packed 2-byte shadows).
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
		}{{false, 0x87f1412543cc1db5}, {true, 0x0f15f9d40cfe5899}} {
			if got := fill(c.bf16); got != c.want {
				t.Errorf("GOMAXPROCS=%d bf16=%v: fingerprint %#x, want %#x", procs, c.bf16, got, c.want)
			}
		}
	}
}
