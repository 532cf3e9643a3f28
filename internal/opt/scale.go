package opt

import (
	"math"

	"repro/internal/tensor"
)

// Dynamic loss scaling for the bf16 mixed-precision path: gradients are
// multiplied by a scale before they are rounded onto the bf16 wire (so
// small values survive the 8-bit significand), and unscaled before the
// fp32 master-weight update. When any scaled gradient overflows to
// ±Inf/NaN the step is skipped and the scale backs off; after a run of
// good steps the scale grows again — the torch.cuda.amp.GradScaler
// protocol. The defaults keep the scale a power of two, which makes
// scaling exactly reversible in binary floating point: multiplying by
// 2^k only shifts the exponent, so the bf16 rounding decisions are
// identical to the unscaled ones and the fp32/bf16 trajectories stay
// comparable.
const (
	// DefaultLossScale is the initial scale (2¹⁶, AMP's default).
	DefaultLossScale = 65536
	// DefaultScaleGrowth doubles the scale after a clean interval.
	DefaultScaleGrowth = 2
	// DefaultScaleBackoff halves the scale on overflow.
	DefaultScaleBackoff = 0.5
	// DefaultScaleInterval is the good-step run length before growth.
	DefaultScaleInterval = 2000
)

// LossScaler tracks the dynamic scale and its skip/backoff telemetry.
type LossScaler struct {
	// Scale is the current multiplier applied to gradients before the
	// bf16 wire. Always read it freshly each step — Update mutates it.
	Scale float64
	// Growth, Backoff and Interval are the adjustment policy.
	Growth, Backoff float64
	Interval        int

	good     int
	backoffs int
	skipped  int
}

// NewLossScaler constructs a scaler; non-positive arguments take the
// package defaults.
func NewLossScaler(initScale, growth, backoff float64, interval int) *LossScaler {
	if initScale <= 0 {
		initScale = DefaultLossScale
	}
	if growth <= 1 {
		growth = DefaultScaleGrowth
	}
	if backoff <= 0 || backoff >= 1 {
		backoff = DefaultScaleBackoff
	}
	if interval <= 0 {
		interval = DefaultScaleInterval
	}
	return &LossScaler{Scale: initScale, Growth: growth, Backoff: backoff, Interval: interval}
}

// Update folds one step's overflow verdict into the scale and reports
// whether the optimizer step must be skipped. On overflow the scale
// backs off and the good-step run resets; otherwise the run advances
// and the scale grows once per full interval.
func (s *LossScaler) Update(overflow bool) (skip bool) {
	if overflow {
		s.Scale *= s.Backoff
		s.good = 0
		s.backoffs++
		s.skipped++
		return true
	}
	s.good++
	if s.good >= s.Interval {
		s.Scale *= s.Growth
		s.good = 0
	}
	return false
}

// Backoffs returns how many times the scale backed off.
func (s *LossScaler) Backoffs() int { return s.backoffs }

// Skipped returns how many optimizer steps were skipped.
func (s *LossScaler) Skipped() int { return s.skipped }

// GoodSteps returns the current run of overflow-free steps.
func (s *LossScaler) GoodSteps() int { return s.good }

// Restore resets the dynamic state (scale and good-step run) from a
// checkpoint so a resumed run continues the identical scale schedule.
func (s *LossScaler) Restore(scale float64, good int) {
	s.Scale = scale
	s.good = good
}

// HasNonFinite reports whether x contains a NaN or ±Inf: Σx² is finite
// exactly when every element is. (The mixed-precision loop takes the
// same verdict from tensor.SumSq.AddScaled, in the pass that unscales.)
func HasNonFinite(x []float32) bool {
	var s tensor.SumSq
	s.Add(x, 0)
	sum := s.Sum()
	return math.IsNaN(sum) || math.IsInf(sum, 0)
}
