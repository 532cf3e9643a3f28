package calib

import (
	"errors"
	"fmt"
	"math"
)

// Named fitter failures. Degenerate sweeps must error, never produce
// NaN constants that would poison a profile silently.
var (
	// ErrSweepShape: the size and time series differ in length.
	ErrSweepShape = errors.New("calib: sweep sizes and times differ in length")
	// ErrSweepTooShort: an α–β line needs at least two points.
	ErrSweepTooShort = errors.New("calib: α–β sweep needs at least 2 points")
	// ErrSweepDegenerate: every point has the same message size, so the
	// slope is unidentifiable.
	ErrSweepDegenerate = errors.New("calib: α–β sweep has no message-size spread")
	// ErrSweepNonPositive: a negative size or non-positive time is not a
	// measurement.
	ErrSweepNonPositive = errors.New("calib: α–β sweep has a non-positive time or negative size")
	// ErrFitNonPhysical: the fitted β (inverse bandwidth) came out ≤ 0 —
	// time did not grow with message size, so there is no bandwidth
	// signal to calibrate from.
	ErrFitNonPhysical = errors.New("calib: fitted β non-positive (no bandwidth signal in sweep)")
)

// FitAlphaBeta least-squares fits the α–β collective model
//
//	t = α + β·V
//
// to a sweep of (V bytes, t seconds) measurements: β is the inverse
// bandwidth (s/byte), α the fixed per-call cost. α may come out
// slightly negative on noisy sweeps (comm.ParamsFromAlphaBeta clamps
// it); β ≤ 0 is rejected as ErrFitNonPhysical. Every error path
// returns before any arithmetic that could yield NaN.
func FitAlphaBeta(bytes, secs []float64) (alpha, beta float64, err error) {
	if len(bytes) != len(secs) {
		return 0, 0, fmt.Errorf("%w: %d sizes, %d times", ErrSweepShape, len(bytes), len(secs))
	}
	if len(bytes) < 2 {
		return 0, 0, fmt.Errorf("%w: got %d", ErrSweepTooShort, len(bytes))
	}
	for i := range bytes {
		if bytes[i] < 0 || secs[i] <= 0 || math.IsNaN(bytes[i]) || math.IsNaN(secs[i]) {
			return 0, 0, fmt.Errorf("%w: point %d = (%v B, %v s)", ErrSweepNonPositive, i, bytes[i], secs[i])
		}
	}
	n := float64(len(bytes))
	var mx, my float64
	for i := range bytes {
		mx += bytes[i]
		my += secs[i]
	}
	mx /= n
	my /= n
	var sxx, sxy float64
	for i := range bytes {
		dx := bytes[i] - mx
		sxx += float64(dx * dx)
		sxy += float64(dx * (secs[i] - my))
	}
	//statgate:allow floateq — exact degeneracy test: sxx is 0 only when every sweep point coincides
	if sxx == 0 {
		return 0, 0, fmt.Errorf("%w: all %d points at %v bytes", ErrSweepDegenerate, len(bytes), bytes[0])
	}
	beta = sxy / sxx
	alpha = my - float64(beta*mx)
	if beta <= 0 {
		return 0, 0, fmt.Errorf("%w: β = %v s/B over [%v, %v] bytes", ErrFitNonPhysical, beta, bytes[0], bytes[len(bytes)-1])
	}
	return alpha, beta, nil
}
