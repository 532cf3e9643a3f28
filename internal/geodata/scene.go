// Package geodata synthesizes the remote-sensing imagery that stands in
// for the paper's datasets (MillionAID for pretraining; MillionAID,
// UCM, AID and NWPU-RESISC45 for linear probing — Table II).
//
// Real RS archives are not available offline, so each dataset is
// replaced by a procedural scene generator with the same class counts
// and split ratios. Every class is an "archetype" of land-cover
// statistics — dominant texture frequencies and orientations
// (agricultural stripes, urban grids), blob fields (tree canopies,
// buildings), large-scale gradients (coastlines) and per-channel
// spectral mixes — and every sample perturbs the archetype with random
// phases, jitter, illumination and sensor noise. Class identity is
// therefore carried by second-order texture statistics rather than raw
// pixel values, which is what makes larger pretrained encoders
// genuinely more useful — the property the paper's Section V trend
// depends on.
//
// Everything is deterministic: sample (dataset, split, class, index)
// always yields the same image on any platform.
package geodata

import (
	"math"

	"repro/internal/rng"
)

// SceneGen generates square channel-last images for a fixed class
// vocabulary.
type SceneGen struct {
	Classes  int
	Size     int
	Channels int

	seed   uint64
	params []classParams
}

// classParams is the per-class archetype.
type classParams struct {
	freq1, freq2   float64 // dominant texture frequencies (cycles/image)
	theta1, theta2 float64 // orientations
	amp1, amp2     float64
	blobDensity    float64 // expected blobs per image
	blobRadius     float64 // relative to image size
	blobAmp        float64
	gradAngle      float64 // large-scale gradient direction
	gradAmp        float64
	checker        float64 // checkerboard cell count (0 = none)
	chanMix        [3][3]float64
}

// NewSceneGen derives the class archetypes deterministically from seed.
func NewSceneGen(classes, size, channels int, seed uint64) *SceneGen {
	if channels > 3 {
		panic("geodata: at most 3 channels supported")
	}
	g := &SceneGen{Classes: classes, Size: size, Channels: channels, seed: seed}
	g.params = make([]classParams, classes)
	for c := range g.params {
		r := rng.New(seed ^ (0x9E3779B97F4A7C15 * uint64(c+1)))
		p := &g.params[c]
		p.freq1 = 1 + float64(7*r.Float64())
		p.freq2 = 1 + float64(11*r.Float64())
		p.theta1 = math.Pi * r.Float64()
		p.theta2 = math.Pi * r.Float64()
		p.amp1 = 0.4 + float64(0.6*r.Float64())
		p.amp2 = 0.2 + float64(0.5*r.Float64())
		p.blobDensity = float64(r.Intn(9))
		p.blobRadius = 0.05 + float64(0.15*r.Float64())
		p.blobAmp = 0.5 + r.Float64()
		p.gradAngle = 2 * math.Pi * r.Float64()
		p.gradAmp = 0.6 * r.Float64()
		if r.Float64() < 0.35 {
			p.checker = float64(2 + r.Intn(5))
		}
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				p.chanMix[i][j] = 0.2 + float64(0.8*r.Float64())
			}
		}
	}
	return g
}

// ImageLen returns the length of one image buffer (Size·Size·Channels).
func (g *SceneGen) ImageLen() int { return g.Size * g.Size * g.Channels }

// sampleStream derives the deterministic per-sample random stream; the
// segmentation mask renderer replays the same stream to reconstruct
// blob layouts exactly.
func (g *SceneGen) sampleStream(class, idx int) *rng.RNG {
	return rng.New(g.seed ^ 0xABCDEF123456789 ^ (uint64(class)<<32 | uint64(idx) + 1))
}

// Image renders sample idx of the given class into dst (channel-last,
// length ImageLen). The pair (class, idx) fully determines the output,
// on every GOARCH: each product that feeds a sum is rounded explicitly
// (float64(a*b)), so no compiler fuses it into a multiply-add.
func (g *SceneGen) Image(class, idx int, dst []float32) {
	if class < 0 || class >= g.Classes {
		panic("geodata: class out of range")
	}
	if len(dst) < g.ImageLen() {
		panic("geodata: Image buffer too small")
	}
	p := &g.params[class]
	r := g.sampleStream(class, idx)

	// Per-sample perturbations of the archetype.
	phase1 := float64(2 * math.Pi * r.Float64())
	phase2 := float64(2 * math.Pi * r.Float64())
	jitter1 := p.theta1 + float64(0.15*(r.Float64()-0.5))
	jitter2 := p.theta2 + float64(0.15*(r.Float64()-0.5))
	illum := 0.85 + float64(0.3*r.Float64())
	noiseStd := 0.08 + float64(0.06*r.Float64())

	n := g.Size
	inv := 1 / float64(n)
	c1, s1 := math.Cos(jitter1), math.Sin(jitter1)
	c2, s2 := math.Cos(jitter2), math.Sin(jitter2)
	gc, gs := math.Cos(p.gradAngle), math.Sin(p.gradAngle)

	// Blob field: positions drawn per sample, density per class.
	nBlobs := int(p.blobDensity)
	if p.blobDensity > 0 && r.Float64() < p.blobDensity-math.Floor(p.blobDensity) {
		nBlobs++
	}
	type blob struct{ x, y, r2, amp float64 }
	blobs := make([]blob, nBlobs)
	for i := range blobs {
		rad := p.blobRadius * (0.7 + float64(0.6*r.Float64()))
		blobs[i] = blob{
			x:   r.Float64(),
			y:   r.Float64(),
			r2:  rad * rad,
			amp: p.blobAmp * (0.6 + float64(0.8*r.Float64())),
		}
	}

	for y := 0; y < n; y++ {
		fy := float64(float64(y) * inv)
		for x := 0; x < n; x++ {
			fx := float64(float64(x) * inv)
			// Oriented gratings (fields, road grids, wave patterns).
			u1 := float64(fx*c1) + float64(fy*s1)
			u2 := float64(fx*c2) + float64(fy*s2)
			v := float64(p.amp1*math.Sin(float64(2*math.Pi*p.freq1*u1)+phase1)) +
				float64(p.amp2*math.Sin(float64(2*math.Pi*p.freq2*u2)+phase2))
			// Large-scale gradient (coastline / slope).
			v += float64(p.gradAmp * (float64(fx*gc) + float64(fy*gs)))
			// Checkerboard (urban block structure).
			if p.checker > 0 {
				cx := int(fx*p.checker) & 1
				cy := int(fy*p.checker) & 1
				if cx^cy == 1 {
					v += 0.5
				}
			}
			// Blobs (canopy, buildings).
			for _, b := range blobs {
				dx, dy := fx-b.x, fy-b.y
				d2 := float64(dx*dx) + float64(dy*dy)
				if d2 < 9*b.r2 {
					v += float64(b.amp * math.Exp(-d2/(2*b.r2)))
				}
			}
			base := v * illum
			off := (y*n + x) * g.Channels
			for ch := 0; ch < g.Channels; ch++ {
				m := p.chanMix[ch]
				pv := float64(m[0]*base) + float64(m[1]*math.Sin(float64(base*2.1)+float64(ch))) + float64(m[2]*0.3)
				pv += float64(noiseStd * r.NormFloat64())
				dst[off+ch] = float32(pv)
			}
		}
	}
}
