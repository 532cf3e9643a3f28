// Package opt implements the optimizers and the learning-rate schedule
// the paper trains with: AdamW (MAE pretraining, base LR 1.5e-4, weight
// decay 0.05), LARS (linear probing, base LR 0.1, no weight decay) and
// cosine decay with linear warmup under the linear batch-scaling rule.
package opt

import (
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// AdamW is Adam with decoupled weight decay (Loshchilov & Hutter), the
// pretraining optimizer of the paper. Parameters flagged NoWeightDecay
// (biases, LayerNorm affine, mask token) are excluded from decay,
// following the MAE recipe.
type AdamW struct {
	Beta1, Beta2 float64
	Eps          float64
	WeightDecay  float64

	params []*nn.Param
	m, v   [][]float32
	t      int
}

// The paper's Adam hyper-parameters (β₁, β₂ as in MAE, ε), shared by
// the replicated and the ZeRO-1 sharded optimizer so the two paths
// cannot drift.
const (
	adamwBeta1 = 0.9
	adamwBeta2 = 0.95
	adamwEps   = 1e-8
)

// NewAdamW constructs AdamW with the paper's hyper-parameters
// (β₁=0.9, β₂=0.95 as in MAE, ε=1e-8) and the given weight decay.
func NewAdamW(params []*nn.Param, weightDecay float64) *AdamW {
	a := &AdamW{
		Beta1: adamwBeta1, Beta2: adamwBeta2, Eps: adamwEps,
		WeightDecay: weightDecay,
		params:      params,
	}
	for _, p := range params {
		a.m = append(a.m, make([]float32, p.NumEl()))
		a.v = append(a.v, make([]float32, p.NumEl()))
	}
	return a
}

// Step applies one AdamW update: tensor.AdamW over every parameter,
// the kernel ShardedAdamW runs over flat spans, so the two agree bit
// for bit.
func (a *AdamW) Step(lr float64) {
	a.t++
	k := tensor.NewAdamWScalars(lr, a.Beta1, a.Beta2, a.Eps, a.t)
	for pi, p := range a.params {
		k.Decay = float32(lr * a.WeightDecay)
		if p.NoWeightDecay {
			k.Decay = 0
		}
		tensor.AdamW(p.Value, nil, nil, p.Grad, a.m[pi], a.v[pi], &k)
	}
}

// LARS implements Layer-wise Adaptive Rate Scaling (You et al.), the
// optimizer the paper uses for linear probing with large batches. Each
// parameter tensor's update is rescaled by ‖w‖/‖g + λw‖ (the "trust
// ratio") before the momentum step.
type LARS struct {
	Momentum    float64
	WeightDecay float64
	TrustCoef   float64

	params []*nn.Param
	vel    [][]float32
}

// NewLARS constructs LARS with the probing configuration (momentum 0.9,
// trust coefficient 0.001, and no weight decay as in the paper).
func NewLARS(params []*nn.Param, weightDecay float64) *LARS {
	l := &LARS{Momentum: 0.9, WeightDecay: weightDecay, TrustCoef: 0.001, params: params}
	for _, p := range params {
		l.vel = append(l.vel, make([]float32, p.NumEl()))
	}
	return l
}

// Step applies one LARS update.
func (l *LARS) Step(lr float64) {
	for pi, p := range l.params {
		w := p.Value
		g := p.Grad
		wd := l.WeightDecay
		if p.NoWeightDecay {
			wd = 0
		}
		wNorm := tensor.L2Norm(w)
		// Effective gradient includes decay for the norm computation.
		var gNorm float64
		for i := range g {
			eg := float64(g[i]) + float64(wd*float64(w[i]))
			gNorm += float64(eg * eg)
		}
		gNorm = math.Sqrt(gNorm)
		trust := 1.0
		if wNorm > 0 && gNorm > 0 {
			trust = l.TrustCoef * wNorm / gNorm
		}
		localLR := float32(lr * trust)
		mu := float32(l.Momentum)
		vel := l.vel[pi]
		for i := range w {
			eg := g[i] + float32(float32(wd)*w[i])
			vel[i] = float32(mu*vel[i]) + float32(localLR*eg)
			w[i] -= vel[i]
		}
	}
}

// CosineSchedule is linear warmup to Base over WarmupSteps, then cosine
// decay to MinLR at TotalSteps — the schedule used for both pretraining
// and probing in the MAE recipe.
type CosineSchedule struct {
	Base        float64
	MinLR       float64
	WarmupSteps int
	TotalSteps  int
}

// LR returns the learning rate for the given zero-based step.
func (c CosineSchedule) LR(step int) float64 {
	if c.WarmupSteps > 0 && step < c.WarmupSteps {
		return c.Base * float64(step+1) / float64(c.WarmupSteps)
	}
	if step >= c.TotalSteps {
		return c.MinLR
	}
	denom := float64(c.TotalSteps - c.WarmupSteps)
	if denom <= 0 {
		return c.MinLR
	}
	progress := float64(step-c.WarmupSteps) / denom
	return c.MinLR + float64(0.5*(c.Base-c.MinLR)*(1+math.Cos(math.Pi*progress)))
}

// ScaledLR applies the linear batch-size scaling rule the paper uses:
// lr = baseLR × globalBatch / 256.
func ScaledLR(baseLR float64, globalBatch int) float64 {
	return baseLR * float64(globalBatch) / 256.0
}
