package serve

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/probe"
	"repro/internal/tensor"
)

// TestServeMatchesTrainingPath is the serving/probing equivalence
// contract at the serving boundary: a served batch's embeddings,
// logits, and labels are bitwise identical to running the probes'
// extractors (mae.Features / mae.TokenFeatures + the probe head) over
// the same image batch.
func TestServeMatchesTrainingPath(t *testing.T) {
	m := tinyModel(7)
	img := imageFn(m, 21)
	const n = 5
	imgLen := m.ImageLen()
	enc := m.MAE.Cfg.Encoder
	w, tok := enc.Width, enc.Tokens()

	// One mixed batch through the serving path.
	reqs := make([]*Request, n)
	resps := make([]*Response, n)
	batchImgs := make([]float32, n*imgLen)
	for i := 0; i < n; i++ {
		im := img(i)
		copy(batchImgs[i*imgLen:(i+1)*imgLen], im)
		reqs[i] = &Request{ID: uint64(i), Kind: mixedKinds[i%len(mixedKinds)], Img: im}
		resps[i] = &Response{ID: uint64(i), Kind: reqs[i].Kind}
	}
	m.Fill(nn.NewInferCtx(), reqs, resps)

	// The same batch through the probes' extractors.
	pooled := m.MAE.Features(batchImgs, n)
	tokens := m.MAE.TokenFeatures(batchImgs, n)

	for i := 0; i < n; i++ {
		switch reqs[i].Kind {
		case Embed:
			for j := 0; j < w; j++ {
				if resps[i].Embedding[j] != pooled[i*w+j] {
					t.Fatalf("request %d embedding[%d]: serve %v, training %v",
						i, j, resps[i].Embedding[j], pooled[i*w+j])
				}
			}
		case Classify:
			want := make([]float32, m.Cls.Classes)
			scratch := make([]float32, w)
			m.Cls.LogitsInto(want, pooled[i*w:(i+1)*w], scratch, 1)
			for j := range want {
				if resps[i].Logits[j] != want[j] {
					t.Fatalf("request %d logits[%d]: serve %v, training %v",
						i, j, resps[i].Logits[j], want[j])
				}
			}
		case Segment:
			logits := make([]float32, tok*m.Seg.Classes)
			scratch := make([]float32, tok*w)
			m.Seg.LogitsInto(logits, tokens[i*tok*w:(i+1)*tok*w], scratch, tok)
			for j := 0; j < tok; j++ {
				want := uint8(probe.Argmax(logits[j*m.Seg.Classes : (j+1)*m.Seg.Classes]))
				if resps[i].Labels[j] != want {
					t.Fatalf("request %d label[%d]: serve %d, training %d",
						i, j, resps[i].Labels[j], want)
				}
			}
		}
	}
}

// TestRowIndependence pins a property the wall-clock server depends
// on: a request's served payload does not depend on which other
// requests shared its batch — every per-row kernel (GEMM rows,
// LayerNorm, per-image attention, pooling) processes a row with the
// same operation order whatever the batch size.
func TestRowIndependence(t *testing.T) {
	m := tinyModel(7)
	img := imageFn(m, 22)
	const n = 4
	reqs := make([]*Request, n)
	resps := make([]*Response, n)
	for i := 0; i < n; i++ {
		reqs[i] = &Request{ID: uint64(i), Kind: Embed, Img: img(i)}
		resps[i] = &Response{ID: uint64(i), Kind: Embed}
	}
	m.Fill(nn.NewInferCtx(), reqs, resps)
	for i := 0; i < n; i++ {
		solo := []*Response{{ID: uint64(i), Kind: Embed}}
		m.Fill(nn.NewInferCtx(), reqs[i:i+1], solo)
		for j := range solo[0].Embedding {
			if resps[i].Embedding[j] != solo[0].Embedding[j] {
				t.Fatalf("request %d embedding[%d] depends on batch composition: %v vs %v",
					i, j, resps[i].Embedding[j], solo[0].Embedding[j])
			}
		}
	}
}

// TestServeBF16 checks the reduced-precision serving mode: bf16-loaded
// weights answer within tolerance of the fp32 model, deterministically.
func TestServeBF16(t *testing.T) {
	serveOne := func(m *Model, img []float32) *Response {
		reqs := []*Request{{ID: 0, Kind: Classify, Img: img}}
		resps := []*Response{{ID: 0, Kind: Classify}}
		m.Fill(nn.NewInferCtx(), reqs, resps)
		return resps[0]
	}
	fp := tinyModel(7)
	bf := tinyModel(7)
	bf.RoundBF16()
	if !bf.BF16 {
		t.Fatal("RoundBF16 did not flag the model")
	}
	img := imageFn(fp, 23)(0)

	a := serveOne(fp, img)
	b := serveOne(bf, img)
	for j := range a.Logits {
		fa, fb := float64(a.Logits[j]), float64(b.Logits[j])
		if math.IsNaN(fb) || math.IsInf(fb, 0) {
			t.Fatalf("bf16 logit %d not finite: %v", j, fb)
		}
		diff := math.Abs(fa - fb)
		if diff > 5e-2*(1+math.Abs(fa)) {
			t.Fatalf("bf16 logit %d drifted: fp32 %v, bf16 %v", j, fa, fb)
		}
	}
	// bf16 serving is itself deterministic.
	c := serveOne(bf, img)
	for j := range b.Logits {
		if b.Logits[j] != c.Logits[j] {
			t.Fatalf("bf16 serving not deterministic at logit %d", j)
		}
	}
	// Rounding the weights twice is a no-op (bf16 is a fixed point of
	// the rounding), so reload paths can round unconditionally.
	bf.RoundBF16()
	d := serveOne(bf, img)
	for j := range b.Logits {
		if b.Logits[j] != d.Logits[j] {
			t.Fatalf("double bf16 rounding changed logit %d", j)
		}
	}
}

// FuzzInferBF16 fuzzes single-image payloads through the bf16 serving
// mode and asserts the boundary properties that must hold for *any*
// finite input: input rounding is idempotent, outputs are finite, and
// serving is deterministic.
func FuzzInferBF16(f *testing.F) {
	f.Add(uint64(1), float32(0.5), float32(-0.25))
	f.Add(uint64(9), float32(3e4), float32(1e-4))
	f.Add(uint64(42), float32(-1), float32(1))
	model := tinyModel(7)
	model.RoundBF16()
	imgLen := model.ImageLen()
	f.Fuzz(func(t *testing.T, seed uint64, a, b float32) {
		if math.IsNaN(float64(a)) || math.IsInf(float64(a), 0) ||
			math.IsNaN(float64(b)) || math.IsInf(float64(b), 0) {
			t.Skip("non-finite seed values")
		}
		// Clamp to a sane dynamic range so the encoder's exponentials
		// stay finite — the serving boundary's admission contract is
		// about shape, not range.
		clamp := func(v float32) float32 {
			if v > 1e4 {
				return 1e4
			}
			if v < -1e4 {
				return -1e4
			}
			return v
		}
		a, b = clamp(a), clamp(b)
		r := newSplitMix(seed)
		img := make([]float32, imgLen)
		for i := range img {
			if r()%2 == 0 {
				img[i] = a
			} else {
				img[i] = b
			}
		}
		rounded := make([]float32, imgLen)
		tensor.RoundBF16(rounded, img)
		twice := make([]float32, imgLen)
		tensor.RoundBF16(twice, rounded)
		for i := range rounded {
			if rounded[i] != twice[i] {
				t.Fatalf("bf16 rounding not idempotent at %d: %v vs %v", i, rounded[i], twice[i])
			}
		}
		run := func() *Response {
			reqs := []*Request{{ID: 0, Kind: Embed, Img: img}}
			resps := []*Response{{ID: 0, Kind: Embed}}
			model.Fill(nn.NewInferCtx(), reqs, resps)
			return resps[0]
		}
		x, y := run(), run()
		for j := range x.Embedding {
			v := float64(x.Embedding[j])
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("embedding[%d] not finite: %v", j, v)
			}
			if x.Embedding[j] != y.Embedding[j] {
				t.Fatalf("bf16 serving not deterministic at %d", j)
			}
		}
	})
}
