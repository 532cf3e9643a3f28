package mae

import (
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

// randImgs renders a deterministic pseudo-image batch for the tiny
// config.
func randImgs(cfg Config, batch int, seed uint64) []float32 {
	enc := cfg.Encoder
	r := rng.New(seed)
	imgs := make([]float32, batch*enc.ImageSize*enc.ImageSize*enc.Channels)
	for i := range imgs {
		imgs[i] = float32(r.Float64()*2 - 1)
	}
	return imgs
}

// TestFrozenPassMatchesRecordingPass holds the frozen encoder pass to
// the recording pass FeaturesWithGrad runs, bit for bit — the pooled
// features of Encode on a frozen arena, of Features and of
// FeaturesWithGrad, and the rows of TokenFeatures — and again after a
// training step has moved the weights.
func TestFrozenPassMatchesRecordingPass(t *testing.T) {
	cfg := tinyCfg()
	m := New(cfg, rng.New(7))
	const batch = 3
	imgs := randImgs(cfg, batch, 11)
	ctx := nn.NewInferCtx()

	check := func(stage string) {
		t.Helper()
		want := m.FeaturesWithGrad(imgs, batch)
		ctx.Reset()
		tok := m.Encode(ctx, imgs, batch)
		pooled := make([]float32, len(want))
		m.PoolTokens(pooled, tok, batch)
		for name, got := range map[string][]float32{"Encode": pooled, "Features": m.Features(imgs, batch)} {
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: %s pooled [%d] %v, FeaturesWithGrad %v", stage, name, i, got[i], want[i])
				}
			}
		}
		for i, v := range m.TokenFeatures(imgs, batch) {
			if v != tok[i] {
				t.Fatalf("%s: TokenFeatures [%d] %v, Encode %v", stage, i, v, tok[i])
			}
		}
	}
	check("fresh weights")

	// Move the weights with one real training step, then re-check: the
	// frozen pass must read the live values, not a stale copy.
	m.Step(imgs, batch)
	for _, p := range m.Params() {
		for i, g := range p.Grad {
			p.Value[i] -= 0.01 * g
		}
		p.ZeroGrad()
	}
	check("after sgd step")
}

// TestInferSharedWeightsConcurrent runs many workers over one shared
// read-only model, each with its own frozen arena, and requires every
// worker to reproduce the serial reference bitwise. Run under -race in
// CI this is the no-per-worker-copies guarantee of the serving stack.
func TestInferSharedWeightsConcurrent(t *testing.T) {
	cfg := tinyCfg()
	m := New(cfg, rng.New(3))
	const batch = 2
	const workers = 4
	const rounds = 3

	ref := nn.NewInferCtx()
	var want [][]float32
	var imgs [][]float32
	for i := 0; i < workers*rounds; i++ {
		im := randImgs(cfg, batch, uint64(100+i))
		imgs = append(imgs, im)
		ref.Reset()
		want = append(want, append([]float32(nil), m.Encode(ref, im, batch)...))
	}

	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ctx := nn.NewInferCtx()
			for r := 0; r < rounds; r++ {
				i := w*rounds + r
				ctx.Reset()
				got := m.Encode(ctx, imgs[i], batch)
				for j := range want[i] {
					if got[j] != want[i][j] {
						errs <- "worker diverged from serial reference"
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
