package tensor

import "math"

// SumSq accumulates Σx² — the reduction of the elementwise family's
// optimizer member (see gelu.go for the family's rules, adamw.go for
// the update it clips for). It is eight float64 lane sums keyed by
// flat index: element i of a buffer that starts at flat position at
// goes to lane (at+i) & 7. Every float32 square is exact in float64, so
// a lane's value depends only on which elements reached it in which
// order — and keying lanes by flat position makes that the same
// whether a gradient is walked per parameter, per owned span or in one
// piece, on the assembly (sumsq_amd64.s) or the scalar lanes. Sum
// folds the lanes once, in the LayerNorm tree. The zero value is an
// empty sum; accumulate on one goroutine, in ascending flat order.
type SumSq struct {
	lane [8]float64
}

// Add accumulates x[i]² for every element of x, whose first element
// sits at flat position at.
func (s *SumSq) Add(x []float32, at int) {
	head := min(-at&7, len(x))
	sumSqLanes(&s.lane, x[:head], at)
	body := (len(x) - head) &^ 7
	sumSqBody(&s.lane, x[head:head+body])
	sumSqLanes(&s.lane, x[head+body:], at+head+body)
}

// AddScaled multiplies x by alpha in place and accumulates the squares
// of the written values, reporting whether any element was NaN or ±Inf
// before the multiply — the mixed-precision step's one read of the
// reduced gradient: overflow verdict, unscale and Σg² together.
func (s *SumSq) AddScaled(x []float32, alpha float32, at int) (nonFinite bool) {
	head := min(-at&7, len(x))
	bad := scaleSumSqLanes(&s.lane, x[:head], alpha, at)
	body := (len(x) - head) &^ 7
	bad = scaleSumSqBody(&s.lane, x[head:head+body], alpha) || bad
	return scaleSumSqLanes(&s.lane, x[head+body:], alpha, at+head+body) || bad
}

// Sum folds the eight lanes in the family's fixed tree. It is finite
// exactly when every accumulated element was: float32 squares cannot
// overflow a float64 sum, and a NaN or ±Inf element poisons its lane.
func (s *SumSq) Sum() float64 {
	l := &s.lane
	return ((l[0] + l[4]) + (l[2] + l[6])) + ((l[1] + l[5]) + (l[3] + l[7]))
}

// nonFinite32 reports whether v is NaN or ±Inf (all exponent bits set).
func nonFinite32(v float32) bool {
	return math.Float32bits(v)&0x7f800000 == 0x7f800000
}

// sumSqLanes and scaleSumSqLanes are the scalar lanes for an arbitrary
// starting position; the *BodyGo forms below are the same loops at a
// lane-0 start, the reference the assembly is held to bit for bit.
func sumSqLanes(lane *[8]float64, x []float32, at int) {
	for i, v := range x {
		lane[(at+i)&7] += float64(float64(v) * float64(v))
	}
}

func scaleSumSqLanes(lane *[8]float64, x []float32, alpha float32, at int) (bad bool) {
	for i, v := range x {
		bad = bad || nonFinite32(v)
		v = float32(v * alpha)
		x[i] = v
		lane[(at+i)&7] += float64(float64(v) * float64(v))
	}
	return bad
}

func sumSqBodyGo(lane *[8]float64, x []float32) { sumSqLanes(lane, x, 0) }

func scaleSumSqBodyGo(lane *[8]float64, x []float32, alpha float32) bool {
	return scaleSumSqLanes(lane, x, alpha, 0)
}

// scaleGo is Scale's scalar lane: one float32 product per element, the
// assembly's bits.
func scaleGo(dst, src []float32, alpha float32) {
	for i, v := range src {
		dst[i] = alpha * v
	}
}

// addGo is Add's scalar lane: one float32 sum per element, the
// assembly's bits.
func addGo(dst, a, b []float32) {
	for i, v := range a {
		dst[i] = v + b[i]
	}
}
