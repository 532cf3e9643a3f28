package opt

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

// quadratic builds a parameter vector and a closure computing the
// gradient of f(w) = ½‖w − target‖² into the parameter's Grad.
func quadratic(t *testing.T, n int, seed uint64) (*nn.Param, []float32, func()) {
	t.Helper()
	r := rng.New(seed)
	p := nn.NewParam("w", n)
	r.FillNormal(p.Value, 0, 1)
	target := make([]float32, n)
	r.FillNormal(target, 0, 1)
	grad := func() {
		for i := range p.Grad {
			p.Grad[i] = p.Value[i] - target[i]
		}
	}
	return p, target, grad
}

func distance(p *nn.Param, target []float32) float64 {
	var s float64
	for i, v := range p.Value {
		d := float64(v) - float64(target[i])
		s += d * d
	}
	return math.Sqrt(s)
}

func TestAdamWConvergesOnQuadratic(t *testing.T) {
	p, target, grad := quadratic(t, 32, 1)
	a := NewAdamW([]*nn.Param{p}, 0)
	start := distance(p, target)
	for i := 0; i < 500; i++ {
		grad()
		a.Step(0.05)
	}
	if end := distance(p, target); end > start*0.01 {
		t.Fatalf("AdamW did not converge: start=%v end=%v", start, end)
	}
}

func TestLARSConvergesOnQuadratic(t *testing.T) {
	p, target, grad := quadratic(t, 32, 3)
	l := NewLARS([]*nn.Param{p}, 0)
	start := distance(p, target)
	for i := 0; i < 2000; i++ {
		grad()
		l.Step(10) // LARS trust ratio makes effective steps small
	}
	if end := distance(p, target); end > start*0.1 {
		t.Fatalf("LARS did not converge: start=%v end=%v", start, end)
	}
}

func TestAdamWWeightDecayShrinksWeights(t *testing.T) {
	p := nn.NewParam("w", 8)
	for i := range p.Value {
		p.Value[i] = 1
	}
	a := NewAdamW([]*nn.Param{p}, 0.5)
	// Zero gradient: only decay acts.
	for i := 0; i < 10; i++ {
		p.ZeroGrad()
		a.Step(0.1)
	}
	for _, v := range p.Value {
		if v >= 1 {
			t.Fatalf("decay did not shrink weight: %v", v)
		}
	}
}

func TestAdamWRespectsNoWeightDecayFlag(t *testing.T) {
	p := nn.NewParam("bias", 4)
	p.NoWeightDecay = true
	for i := range p.Value {
		p.Value[i] = 1
	}
	a := NewAdamW([]*nn.Param{p}, 0.5)
	for i := 0; i < 10; i++ {
		p.ZeroGrad()
		a.Step(0.1)
	}
	for _, v := range p.Value {
		if v != 1 {
			t.Fatalf("NoWeightDecay param modified: %v", v)
		}
	}
}

func TestLARSZeroWeightSafe(t *testing.T) {
	// Trust ratio must not divide by zero when ‖w‖ = 0.
	p := nn.NewParam("w", 4)
	for i := range p.Grad {
		p.Grad[i] = 1
	}
	l := NewLARS([]*nn.Param{p}, 0)
	l.Step(0.1)
	for _, v := range p.Value {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite after zero-norm step: %v", v)
		}
	}
}

func TestCosineScheduleShape(t *testing.T) {
	s := CosineSchedule{Base: 1.0, MinLR: 0.0, WarmupSteps: 10, TotalSteps: 110}
	// Warmup is linear and increasing.
	prev := 0.0
	for i := 0; i < 10; i++ {
		lr := s.LR(i)
		if lr <= prev {
			t.Fatalf("warmup not increasing at %d: %v", i, lr)
		}
		prev = lr
	}
	if math.Abs(s.LR(9)-1.0) > 1e-9 {
		t.Fatalf("warmup end LR %v", s.LR(9))
	}
	// Decay is monotone non-increasing after warmup.
	prev = s.LR(10)
	for i := 11; i < 110; i++ {
		lr := s.LR(i)
		if lr > prev+1e-12 {
			t.Fatalf("decay not monotone at %d", i)
		}
		prev = lr
	}
	// After the end, the schedule floors at MinLR.
	if s.LR(10_000) != 0 {
		t.Fatalf("LR after end = %v", s.LR(10_000))
	}
	// Midpoint of the cosine is half of base.
	mid := s.LR(10 + 50)
	if math.Abs(mid-0.5) > 0.02 {
		t.Fatalf("cosine midpoint %v", mid)
	}
}

func TestCosineScheduleNoWarmup(t *testing.T) {
	s := CosineSchedule{Base: 2, MinLR: 0.2, WarmupSteps: 0, TotalSteps: 100}
	if math.Abs(s.LR(0)-2) > 1e-6 {
		t.Fatalf("start LR %v", s.LR(0))
	}
	if got := s.LR(99); got < 0.2 || got > 0.25 {
		t.Fatalf("end LR %v", got)
	}
}

func TestScaledLRLinearRule(t *testing.T) {
	// The paper's pretraining: base 1.5e-4 with global batch 2048.
	got := ScaledLR(1.5e-4, 2048)
	want := 1.5e-4 * 8
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("ScaledLR=%v want %v", got, want)
	}
	if ScaledLR(0.1, 256) != 0.1 {
		t.Fatal("identity at batch 256 violated")
	}
}
