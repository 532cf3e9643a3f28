package probe

import (
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Head is a trained linear probe packaged for serving: the classifier
// weights in nn.Linear's (dim × classes) row-major layout plus the
// train-split standardization statistics the probe recipe bakes in
// front of the classifier. A Head is immutable after fitting, so any
// number of serving workers may score with it concurrently; LogitsInto
// reproduces the probe's evaluate-time logits bit for bit.
type Head struct {
	Dim     int
	Classes int
	W       []float32 // (Dim × Classes), row-major
	B       []float32 // (Classes)
	Mean    []float64 // train-split per-dimension mean
	InvStd  []float64 // train-split per-dimension 1/σ (floored)
}

// newHead snapshots a trained nn.Linear and its standardization stats
// into an immutable serving artifact.
func newHead(l *nn.Linear, mean, invStd []float64) *Head {
	return &Head{
		Dim:     l.In,
		Classes: l.Out,
		W:       append([]float32(nil), l.W.Value.Data...),
		B:       append([]float32(nil), l.B.Value.Data...),
		Mean:    append([]float64(nil), mean...),
		InvStd:  append([]float64(nil), invStd...),
	}
}

// LogitsInto scores n rows of *raw* (unstandardized) features:
// standardize with the head's train statistics into scratch, then
// dst = x̂·W + b through the same GEMM and bias loop the training-time
// head used. dst needs n·Classes elements and scratch n·Dim; both are
// caller-owned so workers can score from per-worker arenas.
func (h *Head) LogitsInto(dst, features, scratch []float32, n int) {
	d := h.Dim
	copy(scratch[:n*d], features[:n*d])
	standardize(scratch[:n*d], h.Mean, h.InvStd, d)
	tensor.MatMul(dst, scratch[:n*d], h.W, n, d, h.Classes, false)
	for i := 0; i < n; i++ {
		yi := dst[i*h.Classes : (i+1)*h.Classes]
		for j := range yi {
			yi[j] += h.B[j]
		}
	}
}

// Argmax returns the index of the largest logit — the predicted class.
func Argmax(logits []float32) int { return argmax(logits) }
