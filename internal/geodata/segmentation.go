package geodata

import "math"

// Segmentation support: the paper's envisioned next step ("evaluation
// of model capabilities across additional downstream tasks (e.g. ...
// semantic segmentation)"). Because the scenes are procedural we can
// emit exact per-pixel ground truth: every pixel is labeled by the
// dominant generative process at that location.

// Per-pixel semantic classes.
const (
	SegBackground = 0 // base texture (fields, water)
	SegStructure  = 1 // blob field (buildings, canopy)
	SegGrid       = 2 // bright checkerboard cells (urban blocks)
	SegClasses    = 3
)

// ImageWithMask renders sample idx of the class like Image, and
// additionally writes the per-pixel semantic label (one of the Seg*
// constants) into mask, which must have Size·Size elements. The image
// output is identical to Image for the same (class, idx).
func (g *SceneGen) ImageWithMask(class, idx int, dst []float32, mask []uint8) {
	if len(mask) < g.Size*g.Size {
		panic("geodata: mask buffer too small")
	}
	g.Image(class, idx, dst)
	g.renderMask(class, idx, mask)
}

// renderMask recomputes the blob field and checker layout with the same
// deterministic draws as Image and labels each pixel by the dominant
// contribution.
func (g *SceneGen) renderMask(class, idx int, mask []uint8) {
	p := &g.params[class]
	r := g.sampleStream(class, idx)

	// Consume the same leading draws as Image so blob positions match.
	_ = r.Float64() // phase1
	_ = r.Float64() // phase2
	_ = r.Float64() // jitter1
	_ = r.Float64() // jitter2
	_ = r.Float64() // illum
	_ = r.Float64() // noiseStd

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

	n := g.Size
	inv := 1 / float64(n)
	for y := 0; y < n; y++ {
		fy := float64(float64(y) * inv)
		for x := 0; x < n; x++ {
			fx := float64(float64(x) * inv)
			label := uint8(SegBackground)
			// Blob contribution at this pixel.
			var blobV float64
			for _, b := range blobs {
				dx, dy := fx-b.x, fy-b.y
				d2 := float64(dx*dx) + float64(dy*dy)
				if d2 < 9*b.r2 {
					blobV += float64(b.amp * math.Exp(-d2/(2*b.r2)))
				}
			}
			switch {
			case blobV > 0.35:
				label = SegStructure
			case p.checker > 0:
				cx := int(fx*p.checker) & 1
				cy := int(fy*p.checker) & 1
				if cx^cy == 1 {
					label = SegGrid
				}
			}
			mask[y*n+x] = label
		}
	}
}

// PatchLabels majority-votes the per-pixel mask into per-patch labels
// on a (size/ps)² grid in the same row-major patch order as
// nn.Patchify. dst must have (size/ps)² elements.
func PatchLabels(mask []uint8, size, ps int, dst []int) {
	if size%ps != 0 {
		panic("geodata: size not divisible by patch")
	}
	grid := size / ps
	if len(dst) < grid*grid {
		panic("geodata: PatchLabels buffer too small")
	}
	var counts [SegClasses]int
	for gy := 0; gy < grid; gy++ {
		for gx := 0; gx < grid; gx++ {
			for c := range counts {
				counts[c] = 0
			}
			for py := 0; py < ps; py++ {
				row := (gy*ps + py) * size
				for px := 0; px < ps; px++ {
					counts[mask[row+gx*ps+px]]++
				}
			}
			best := 0
			for c := 1; c < SegClasses; c++ {
				if counts[c] > counts[best] {
					best = c
				}
			}
			dst[gy*grid+gx] = best
		}
	}
}
