// Package metrics provides the evaluation measures reported in the
// paper's downstream experiments: top-k classification accuracy and
// running averages for loss curves.
package metrics

import (
	"fmt"
	"sort"
)

// TopKCorrect reports whether label is among the k largest logits.
func TopKCorrect(logits []float32, label, k int) bool {
	if k <= 0 {
		return false
	}
	target := logits[label]
	higher := 0
	for i, v := range logits {
		//statgate:allow floateq — deterministic tie-break on stored logits; exact equality is the intent
		if v > target || (v == target && i < label) {
			higher++
			if higher >= k {
				return false
			}
		}
	}
	return true
}

// Accuracy accumulates top-1 and top-5 accuracy over a stream of
// predictions, exactly the two curves of the paper's Figure 6.
type Accuracy struct {
	n          int
	top1, top5 int
	NumClasses int
}

// NewAccuracy creates an accumulator for the given class count.
func NewAccuracy(numClasses int) *Accuracy {
	return &Accuracy{NumClasses: numClasses}
}

// Observe records one prediction (a logit row) against its true label.
func (a *Accuracy) Observe(logits []float32, label int) {
	a.n++
	if TopKCorrect(logits, label, 1) {
		a.top1++
	}
	if TopKCorrect(logits, label, 5) {
		a.top5++
	}
}

// Top1 returns top-1 accuracy in [0, 1] (0 before any observation).
func (a *Accuracy) Top1() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.top1) / float64(a.n)
}

// Top5 returns top-5 accuracy in [0, 1].
func (a *Accuracy) Top5() float64 {
	if a.n == 0 {
		return 0
	}
	return float64(a.top5) / float64(a.n)
}

// Count returns the number of observations.
func (a *Accuracy) Count() int { return a.n }

// Reset clears the accumulator.
func (a *Accuracy) Reset() { a.n, a.top1, a.top5 = 0, 0, 0 }

// String formats the pair as percentages.
func (a *Accuracy) String() string {
	return fmt.Sprintf("top1=%.2f%% top5=%.2f%%", 100*a.Top1(), 100*a.Top5())
}

// Meter tracks a running mean of a scalar (loss curves).
type Meter struct {
	sum float64
	n   int
}

// Add records one value.
func (m *Meter) Add(v float64) { m.sum += v; m.n++ }

// Mean returns the running mean (0 before any Add).
func (m *Meter) Mean() float64 {
	if m.n == 0 {
		return 0
	}
	return m.sum / float64(m.n)
}

// Count returns the number of recorded values.
func (m *Meter) Count() int { return m.n }

// Reset clears the meter.
func (m *Meter) Reset() { m.sum, m.n = 0, 0 }

// Series is an append-only (x, y) sequence used to export loss and
// accuracy curves for the figures.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Last returns the most recent y value (0 if empty).
func (s *Series) Last() float64 {
	if len(s.Y) == 0 {
		return 0
	}
	return s.Y[len(s.Y)-1]
}

// Percentile returns the p-th percentile (0≤p≤100) of the y values
// using nearest-rank; 0 for an empty series.
func (s *Series) Percentile(p float64) float64 {
	if len(s.Y) == 0 {
		return 0
	}
	ys := append([]float64(nil), s.Y...)
	sort.Float64s(ys)
	rank := int(p / 100 * float64(len(ys)-1))
	return ys[rank]
}
