package mae

import (
	"math"
	"sync"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/vit"
)

func tinyCfg() Config {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 2}
	return Config{Encoder: enc, DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.5}
}

func TestDefaultConfig(t *testing.T) {
	c := Default(vit.ViT3B)
	if c.DecoderWidth != 512 || c.DecoderDepth != 8 || c.DecoderHeads != 16 {
		t.Fatalf("paper decoder defaults wrong: %+v", c)
	}
	if c.MaskRatio != 0.75 {
		t.Fatalf("mask ratio %v", c.MaskRatio)
	}
	// Analog regime must produce a valid, smaller decoder.
	an, err := vit.Analog("ViT-Base", 32, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	ca := Default(an)
	if err := ca.Validate(); err != nil {
		t.Fatalf("analog MAE config invalid: %v", err)
	}
	if ca.DecoderWidth >= an.Width {
		t.Fatalf("analog decoder width %d not lightweight vs encoder %d", ca.DecoderWidth, an.Width)
	}
}

func TestKeepTokens(t *testing.T) {
	c := tinyCfg() // 9 tokens, ratio 0.5 → keep 4 or 5
	keep := c.KeepTokens()
	if keep < 1 || keep >= c.Encoder.Tokens() {
		t.Fatalf("keep=%d of %d", keep, c.Encoder.Tokens())
	}
	// Paper ratio: 75% masked → 25% visible.
	p := Default(vit.ViTBase)
	want := int(math.Round(float64(p.Encoder.Tokens()) * 0.25))
	if p.KeepTokens() != want {
		t.Fatalf("keep=%d want %d", p.KeepTokens(), want)
	}
}

func TestValidateRejectsBadRatio(t *testing.T) {
	c := tinyCfg()
	c.MaskRatio = 1.5
	if err := c.Validate(); err == nil {
		t.Fatal("mask ratio 1.5 accepted")
	}
	c.MaskRatio = 0
	if err := c.Validate(); err == nil {
		t.Fatal("mask ratio 0 accepted")
	}
}

func TestNumParamsMatchesLiveModel(t *testing.T) {
	c := tinyCfg()
	m := New(c, rng.New(1))
	live := int64(nn.CountParams(m.Params()))
	if live != c.NumParams() {
		t.Fatalf("live %d != analytic %d", live, c.NumParams())
	}
}

func TestMaskCoverage(t *testing.T) {
	c := tinyCfg()
	m := New(c, rng.New(2))
	const batch = 3
	m.sampleMask(batch)
	tk := c.Encoder.Tokens()
	for b := 0; b < batch; b++ {
		seen := make([]bool, tk)
		for _, i := range m.keepIdx[b] {
			seen[i] = true
		}
		for _, i := range m.maskIdx[b] {
			if seen[i] {
				t.Fatalf("index %d both kept and masked", i)
			}
			seen[i] = true
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("index %d neither kept nor masked", i)
			}
		}
		if len(m.keepIdx[b]) != c.KeepTokens() {
			t.Fatalf("keep count %d want %d", len(m.keepIdx[b]), c.KeepTokens())
		}
		// Sorted order.
		for i := 1; i < len(m.keepIdx[b]); i++ {
			if m.keepIdx[b][i] <= m.keepIdx[b][i-1] {
				t.Fatal("keep indices not sorted")
			}
		}
	}
}

func TestMasksVaryAcrossSteps(t *testing.T) {
	c := tinyCfg()
	m := New(c, rng.New(3))
	m.sampleMask(1)
	first := append([]int(nil), m.keepIdx[0]...)
	varied := false
	for i := 0; i < 10; i++ {
		m.sampleMask(1)
		for j := range first {
			if m.keepIdx[0][j] != first[j] {
				varied = true
			}
		}
	}
	if !varied {
		t.Fatal("mask never changed across 10 draws")
	}
}

func TestLossFiniteAndPositive(t *testing.T) {
	c := tinyCfg()
	m := New(c, rng.New(4))
	r := rng.New(5)
	const batch = 2
	imgs := make([]float32, batch*c.Encoder.ImageSize*c.Encoder.ImageSize*c.Encoder.Channels)
	r.FillNormal(imgs, 0, 1)
	loss := m.Step(imgs, batch)
	if loss <= 0 || math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss=%v", loss)
	}
}

func TestStepReducesLossOverTraining(t *testing.T) {
	// A short real training run on a fixed batch must reduce the
	// reconstruction loss — end-to-end sanity of forward+backward+SGD.
	c := tinyCfg()
	m := New(c, rng.New(6))
	r := rng.New(7)
	const batch = 4
	imgs := make([]float32, batch*c.Encoder.ImageSize*c.Encoder.ImageSize*c.Encoder.Channels)
	r.FillNormal(imgs, 0, 1)

	ps := m.Params()
	keep := [][]int{{0, 2, 4, 6}, {1, 3, 5, 7}, {0, 1, 2, 3}, {5, 6, 7, 8}}
	step := func() float64 {
		loss := m.ForwardWithMask(imgs, batch, keep)
		m.BackwardStep()
		return loss
	}
	first := step()
	last := first
	const lr = 0.05
	for i := 0; i < 60; i++ {
		nn.ZeroGrads(ps)
		last = step()
		for _, p := range ps {
			for i, g := range p.Grad.Data {
				p.Value.Data[i] -= lr * g
			}
		}
	}
	if !(last < first*0.9) {
		t.Fatalf("loss did not decrease: first=%v last=%v", first, last)
	}
}

func TestFullModelGradientCheck(t *testing.T) {
	// Central-difference check of dLoss/dθ through the entire MAE
	// (patchify → embed → mask → encoder → decoder → masked MSE).
	c := tinyCfg()
	m := New(c, rng.New(8))
	r := rng.New(9)
	const batch = 2
	imgs := make([]float32, batch*c.Encoder.ImageSize*c.Encoder.ImageSize*c.Encoder.Channels)
	r.FillNormal(imgs, 0, 1)
	keep := [][]int{{0, 2, 5, 7}, {1, 3, 4, 8}}

	ps := m.Params()
	nn.ZeroGrads(ps)
	m.ForwardWithMask(imgs, batch, keep)
	m.BackwardStep()

	lossAt := func() float64 {
		m.SetMask(keep)
		return m.forward(imgs, batch)
	}

	const h = 1e-2
	probes := []*nn.Param{ps[0], m.MaskToken, ps[len(ps)/2], ps[len(ps)-1]}
	for _, p := range probes {
		for _, idx := range []int{0, p.NumEl() / 2} {
			orig := p.Value.Data[idx]
			p.Value.Data[idx] = orig + h
			lp := lossAt()
			p.Value.Data[idx] = orig - h
			lm := lossAt()
			p.Value.Data[idx] = orig
			num := (lp - lm) / (2 * h)
			got := float64(p.Grad.Data[idx])
			scale := math.Max(0.05, math.Max(math.Abs(num), math.Abs(got)))
			if math.Abs(num-got)/scale > 5e-2 {
				t.Errorf("%s[%d]: numeric %v analytic %v", p.Name, idx, num, got)
			}
		}
	}
}

// TestMaskRatioAblation verifies the mask-ratio ablation hook: a higher
// mask ratio leaves fewer visible tokens.
func TestMaskRatioAblation(t *testing.T) {
	base := tinyCfg()
	low := base
	low.MaskRatio = 0.25
	high := base
	high.MaskRatio = 0.9
	if !(low.KeepTokens() > base.KeepTokens() && base.KeepTokens() > high.KeepTokens()) {
		t.Fatalf("keep tokens not monotone in mask ratio: %d %d %d",
			low.KeepTokens(), base.KeepTokens(), high.KeepTokens())
	}
}

func TestFeaturesIndependentOfMaskState(t *testing.T) {
	// Downstream features must not depend on whatever mask the last
	// training step drew — Features always runs unmasked.
	c := tinyCfg()
	m := New(c, rng.New(20))
	r := rng.New(21)
	const batch = 2
	imgs := make([]float32, batch*c.Encoder.ImageSize*c.Encoder.ImageSize*c.Encoder.Channels)
	r.FillNormal(imgs, 0, 1)
	f1 := append([]float32(nil), m.Features(imgs, batch)...)
	_ = m.Step(imgs, batch) // draws and applies a random mask
	f2 := m.Features(imgs, batch)
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("Features changed after a masked forward pass")
		}
	}
}

func TestTokenFeaturesShapeAndPooling(t *testing.T) {
	// Mean of TokenFeatures rows must equal Features (same forward).
	c := tinyCfg()
	m := New(c, rng.New(22))
	r := rng.New(23)
	const batch = 2
	imgs := make([]float32, batch*c.Encoder.ImageSize*c.Encoder.ImageSize*c.Encoder.Channels)
	r.FillNormal(imgs, 0, 1)
	tok := m.TokenFeatures(imgs, batch)
	tkn := c.Encoder.Tokens()
	w := c.Encoder.Width
	if len(tok) != batch*tkn*w {
		t.Fatalf("token features len %d", len(tok))
	}
	pooled := m.Features(imgs, batch)
	for b := 0; b < batch; b++ {
		for j := 0; j < w; j++ {
			var mean float64
			for tt := 0; tt < tkn; tt++ {
				mean += float64(tok[(b*tkn+tt)*w+j])
			}
			mean /= float64(tkn)
			if math.Abs(mean-float64(pooled[b*w+j])) > 1e-5 {
				t.Fatalf("pooled[%d,%d]=%v but token mean=%v", b, j, pooled[b*w+j], mean)
			}
		}
	}
}

func TestFineTuneGradientFlowsToEncoder(t *testing.T) {
	// BackwardFeatures must deposit nonzero gradients in the encoder.
	c := tinyCfg()
	m := New(c, rng.New(24))
	r := rng.New(25)
	const batch = 2
	imgs := make([]float32, batch*c.Encoder.ImageSize*c.Encoder.ImageSize*c.Encoder.Channels)
	r.FillNormal(imgs, 0, 1)
	nn.ZeroGrads(m.Params())
	f := m.FeaturesWithGrad(imgs, batch)
	d := make([]float32, len(f))
	r.FillNormal(d, 0, 1)
	m.BackwardFeatures(d)
	var norm float64
	for _, p := range m.EncoderParams() {
		for _, g := range p.Grad.Data {
			norm += float64(g) * float64(g)
		}
	}
	if norm == 0 {
		t.Fatal("no gradient reached the encoder")
	}
}

// TestFeaturesBetweenForwardAndBackward: a Features call between a
// training step's forward and backward halves leaves the step's
// gradients bitwise those of the same step without it — the frozen
// extractor writes none of the caches the backward reads.
func TestFeaturesBetweenForwardAndBackward(t *testing.T) {
	cfg := tinyCfg()
	imgs, other := randImgs(cfg, 3, 13), randImgs(cfg, 2, 14)
	step := func(interleave bool) []float32 {
		m := New(cfg, rng.New(1))
		m.ForwardWithMask(imgs, 3, m.DrawMasks(3))
		if interleave {
			m.Features(other, 2)
		}
		m.BackwardStep()
		var g []float32
		for _, p := range m.Params() {
			g = append(g, p.Grad.Data...)
		}
		return g
	}
	want, got := step(false), step(true)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("gradient element %d of %d: %v with Features interleaved, %v without", i, len(want), got[i], want[i])
		}
	}
}

// TestBackwardStepConcurrentReplicas: two seed-identical replicas
// running BackwardStep at the same time — as in-process ranks do, each
// taking its blocks' transients from its own arena — accumulate bitwise
// the gradients of one replica stepping alone.
func TestBackwardStepConcurrentReplicas(t *testing.T) {
	cfg := tinyCfg()
	const batch = 3
	imgs := randImgs(cfg, batch, 15)
	grads := func(m *Model) []float32 {
		var g []float32
		for _, p := range m.Params() {
			g = append(g, p.Grad.Data...)
		}
		return g
	}
	replica := func() *Model {
		m := New(cfg, rng.New(1))
		m.ForwardWithMask(imgs, batch, m.DrawMasks(batch))
		return m
	}
	solo := replica()
	solo.BackwardStep()
	want := grads(solo)

	ms := [2]*Model{replica(), replica()}
	var wg sync.WaitGroup
	for _, m := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.BackwardStep()
		}()
	}
	wg.Wait()
	for i, m := range ms {
		got := grads(m)
		for j := range want {
			if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
				t.Fatalf("replica %d gradient element %d: %v concurrently, %v alone", i, j, got[j], want[j])
			}
		}
	}
}

// TestDrawMasksTracksStep: DrawMasks must consume the mask stream
// exactly as Step does, and return the same visible sets — the contract
// multi-rank training uses to keep rank mask streams in lock-step with
// the single-rank run.
func TestDrawMasksTracksStep(t *testing.T) {
	cfg := tinyCfg()
	a := New(cfg, rng.New(4))
	b := New(cfg, rng.New(4))
	imgs := make([]float32, 3*cfg.Encoder.ImageSize*cfg.Encoder.ImageSize*cfg.Encoder.Channels)
	rng.New(5).FillUniform(imgs, 0, 1)

	for round := 0; round < 3; round++ {
		a.Step(imgs, 3)
		keep := b.DrawMasks(3)
		for i := range keep {
			if len(keep[i]) != len(a.keepIdx[i]) {
				t.Fatalf("round %d image %d: keep count %d vs %d", round, i, len(keep[i]), len(a.keepIdx[i]))
			}
			for j := range keep[i] {
				if keep[i][j] != a.keepIdx[i][j] {
					t.Fatalf("round %d image %d: masks diverge at %d", round, i, j)
				}
			}
		}
		// b's stream must stay aligned for the next round even though b
		// never runs forward.
	}
}

// TestBackwardSegmentsTileFlatSpace pins the layer-granular backward
// contract the overlapped executor builds on: BackwardSegments covers
// every trainable parameter exactly once, and in completion order the
// segments tile the flat packed parameter space contiguously from the
// top down (segment k sits immediately below segment k−1).
func TestBackwardSegmentsTileFlatSpace(t *testing.T) {
	m := New(tinyCfg(), rng.New(1))
	params := m.Params()
	offs := make(map[*nn.Param]int, len(params))
	dim := 0
	for _, p := range params {
		offs[p] = dim
		dim += p.NumEl()
	}
	cursor := dim
	for k, seg := range m.BackwardSegments() {
		if len(seg) == 0 {
			t.Fatalf("segment %d empty", k)
		}
		lo, total := cursor, 0
		for _, p := range seg {
			off, ok := offs[p]
			if !ok {
				t.Fatalf("segment %d holds a parameter (%s) outside Params, or a duplicate", k, p.Name)
			}
			delete(offs, p)
			if off < lo {
				lo = off
			}
			total += p.NumEl()
		}
		if lo+total != cursor {
			t.Fatalf("segment %d covers [%d, %d+%d), want it to end at the previous frontier %d",
				k, lo, lo, total, cursor)
		}
		cursor = lo
	}
	if cursor != 0 {
		t.Fatalf("segments stop at flat offset %d, want 0", cursor)
	}
	if len(offs) != 0 {
		t.Fatalf("%d parameters not covered by any segment", len(offs))
	}
}

// TestBackwardStepLayersMatchesBackwardStep: the callback-granular
// backward must accumulate bit-identical gradients to the monolithic
// one, emit one event per segment in order, and each event's segment
// gradients must already be final at emission time.
func TestBackwardStepLayersMatchesBackwardStep(t *testing.T) {
	cfg := tinyCfg()
	imgs := make([]float32, 4*cfg.Encoder.ImageSize*cfg.Encoder.ImageSize*cfg.Encoder.Channels)
	rng.New(9).FillNormal(imgs, 0, 1)

	run := func(layered bool) ([]float32, int) {
		m := New(cfg, rng.New(1))
		params := m.Params()
		nn.ZeroGrads(params)
		keep := m.DrawMasks(4)
		m.ForwardWithMask(imgs, 4, keep)
		events := 0
		if layered {
			segs := m.BackwardSegments()
			snapshots := make([][]float32, len(segs))
			m.BackwardStepLayers(func(k int) {
				if k != events {
					t.Fatalf("segment %d emitted out of order (expected %d)", k, events)
				}
				// Snapshot this segment's gradients at emission.
				var snap []float32
				for _, p := range segs[k] {
					snap = append(snap, p.Grad.Data...)
				}
				snapshots[k] = snap
				events++
			})
			// Final check: emission-time gradients were already final.
			for k, seg := range segs {
				var now []float32
				for _, p := range seg {
					now = append(now, p.Grad.Data...)
				}
				for i := range now {
					if math.Float32bits(now[i]) != math.Float32bits(snapshots[k][i]) {
						t.Fatalf("segment %d gradient changed after its completion event", k)
					}
				}
			}
		} else {
			m.BackwardStep()
		}
		var flat []float32
		for _, p := range params {
			flat = append(flat, p.Grad.Data...)
		}
		return flat, events
	}

	ref, _ := run(false)
	got, events := run(true)
	m := New(cfg, rng.New(1))
	if want := len(m.BackwardSegments()); events != want {
		t.Fatalf("emitted %d events, want %d", events, want)
	}
	for i := range ref {
		if math.Float32bits(got[i]) != math.Float32bits(ref[i]) {
			t.Fatalf("layered backward gradient differs at flat element %d", i)
		}
	}
}
