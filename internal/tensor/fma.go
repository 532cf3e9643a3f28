package tensor

import "math"

// fma32 returns a·b + c rounded once to float32: what one lane of
// VFMADD computes, and so the definition the portable kernels use
// wherever the assembly fuses (kern6x16go, flashExp).
// float32(math.FMA(a, b, c)) is not it: that rounds twice.
//
// The product of two float32 values is exact in float64 (24 + 24
// significant bits ≤ 53), so s = a·b + c rounded to float64 is one
// rounding away from the exact value x. Rounding s to float32 then
// gives x's rounding unless a float32 rounding boundary lies between x
// and s, and every boundary is a float64: one strictly between them
// would be nearer x than s is, so the boundary can only be s itself.
// A boundary — a value halfway between two float32 values, normal or
// subnormal — has no significand bit in the low 28 of a float64, so
// every s with one set takes the fast path; the rest are rounded to
// odd by fma32Odd. The product is written with an explicit conversion
// so that no compiler fuses it with the sum.
func fma32(a, b, c float32) float32 {
	p := float64(float64(a) * float64(b))
	s := p + float64(c)
	if math.Float64bits(s)&(1<<28-1) != 0 {
		return float32(s)
	}
	return fma32Odd(p, float64(c), s)
}

// fma32Odd is fma32 for an s = RN(p + c) that may lie on a float32
// rounding boundary, or is zero or not finite. TwoSum recovers the
// sum's rounding error e exactly; rounding to odd — truncating p + c
// toward zero and setting the last bit when e ≠ 0 — keeps enough of
// the exact value for the float32 conversion to round it correctly
// (Boldo & Melquiond, "Emulation of FMA and correctly rounded sums:
// proved algorithms using rounding to odd", IEEE TC 2008). It is out
// of line so that the fast path stays small.
//
//go:noinline
func fma32Odd(p, c, s float64) float32 {
	bv := s - p
	e := (p - (s - bv)) + (c - bv) // exactly (p + c) − s
	// e is NaN only when s is not finite, which needs no rounding. e ≠ 0
	// implies s ≠ 0: a float64 sum rounds to zero only when it is
	// exactly zero. s was rounded away from zero when e's sign differs
	// from s's, and truncating is then one step back.
	if e < 0 || e > 0 {
		bits := math.Float64bits(s)
		s = math.Float64frombits(bits - (math.Float64bits(e)^bits)>>63 | 1)
	}
	return float32(s)
}
