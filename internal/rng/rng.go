// Package rng provides a small, fast, fully deterministic pseudo-random
// number generator used throughout the training stack and the synthetic
// geospatial data generator.
//
// Determinism matters here more than statistical sophistication: every
// experiment in the repo must be exactly reproducible from a seed, on
// any platform, across Go releases. We therefore implement SplitMix64
// (for stream splitting) feeding xoshiro256**, rather than depending on
// math/rand internals.
package rng

import "math"

// RNG is a seedable xoshiro256** generator. The zero value is not
// usable; construct with New.
type RNG struct {
	s [4]uint64
}

// New returns a generator seeded from the given seed via SplitMix64, as
// recommended by the xoshiro authors so that nearby seeds produce
// unrelated streams.
func New(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	for i := range r.s {
		sm += 0x9E3779B97F4A7C15
		z := sm
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		r.s[i] = z ^ (z >> 31)
	}
	// xoshiro must not start from the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9E3779B97F4A7C15
	}
	return r
}

// Split derives an independent child generator; the parent stream is
// advanced by one step. Used to hand each data-loader worker or layer
// its own stream without cross-correlation.
func (r *RNG) Split() *RNG {
	return New(r.Uint64())
}

// Uint64 returns the next 64 uniformly random bits.
func (r *RNG) Uint64() uint64 {
	s := &r.s
	result := rotl(s[1]*5, 7) * 9
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniform float64 in [0, 1). The scaling is rounded
// explicitly, as Float32's is, so that no compiler fuses it with a
// caller's add: the streams are the same bits on every GOARCH.
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Float32 returns a uniform float32 in [0, 1).
func (r *RNG) Float32() float32 {
	return float32(float32(r.Uint64()>>40) / (1 << 24))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	// Lemire's multiply-shift rejection method, bias-free.
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	aLo, aHi := a&mask, a>>32
	bLo, bHi := b&mask, b>>32
	t := aHi*bLo + (aLo*bLo)>>32
	lo = a * b
	hi = aHi*bHi + t>>32 + (t&mask+aLo*bHi)>>32
	return hi, lo
}

// NormFloat64 returns a standard normal variate (Box–Muller, polar form
// avoided for determinism simplicity; the trig form is fine here).
func (r *RNG) NormFloat64() float64 {
	// Guard against log(0).
	u1 := r.Float64()
	//statgate:allow floateq — log(0) guard; only an exactly-zero draw is dangerous
	for u1 == 0 {
		u1 = r.Float64()
	}
	u2 := r.Float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// NormFloat32 is NormFloat64 truncated to float32.
func (r *RNG) NormFloat32() float32 { return float32(r.NormFloat64()) }

// Perm returns a random permutation of [0, n) via Fisher–Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(p)
	return p
}

// Shuffle permutes p in place.
func (r *RNG) Shuffle(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}

// FillUniform fills dst with uniform values in [lo, hi).
func (r *RNG) FillUniform(dst []float32, lo, hi float32) {
	scale := hi - lo
	for i := range dst {
		dst[i] = lo + float32(scale*r.Float32())
	}
}

// FillNormal fills dst with N(mean, std²) values.
func (r *RNG) FillNormal(dst []float32, mean, std float32) {
	for i := range dst {
		dst[i] = mean + float32(std*r.NormFloat32())
	}
}
