package nn

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// Patchify rearranges a batch of channel-last images, stored as
// (batch × H·W·C) row-major float32, into a (batch·nPatches × ps·ps·C)
// matrix of flattened non-overlapping patches in row-major grid order.
// H and W must be divisible by ps.
//
// The patch-pixel ordering is (py, px, c) — the same ordering is used
// when building reconstruction targets, so the choice only has to be
// consistent.
func Patchify(dst, imgs []float32, batch, h, w, c, ps int) {
	if h%ps != 0 || w%ps != 0 {
		panic(fmt.Sprintf("nn: image %dx%d not divisible by patch %d", h, w, ps))
	}
	gh, gw := h/ps, w/ps
	pd := ps * ps * c
	if len(dst) < batch*gh*gw*pd || len(imgs) < batch*h*w*c {
		panic("nn: Patchify buffer too small")
	}
	parallel.ForGrain(batch*gh*gw, 4, func(p int) {
		b := p / (gh * gw)
		g := p % (gh * gw)
		gy, gx := g/gw, g%gw
		img := imgs[b*h*w*c:]
		out := dst[p*pd:]
		o := 0
		for py := 0; py < ps; py++ {
			rowOff := ((gy*ps+py)*w + gx*ps) * c
			copy(out[o:o+ps*c], img[rowOff:rowOff+ps*c])
			o += ps * c
		}
	})
}

// UnpatchifyAdd is the adjoint of Patchify: it accumulates flattened
// patch values back into image layout. Used only by tests to verify the
// rearrangement is a bijection.
func UnpatchifyAdd(imgs, patches []float32, batch, h, w, c, ps int) {
	gh, gw := h/ps, w/ps
	pd := ps * ps * c
	for p := 0; p < batch*gh*gw; p++ {
		b := p / (gh * gw)
		g := p % (gh * gw)
		gy, gx := g/gw, g%gw
		img := imgs[b*h*w*c:]
		src := patches[p*pd:]
		o := 0
		for py := 0; py < ps; py++ {
			rowOff := ((gy*ps+py)*w + gx*ps) * c
			for i := 0; i < ps*c; i++ {
				img[rowOff+i] += src[o+i]
			}
			o += ps * c
		}
	}
}

// PatchEmbed projects flattened patches into the transformer width and
// adds fixed 2-D sin-cos positional embeddings (the MAE configuration:
// positional embeddings are not learned).
type PatchEmbed struct {
	PatchDim, Width int
	Tokens          int // grid positions per image
	Proj            *Linear
	Pos             []float32 // (Tokens × Width), fixed

	// rows and grid, recorded by ApplyRows on a recording arena (Apply
	// clears rows), are where each embedded row lies in the batch's
	// grid of grid patches.
	rows []int
	grid int
}

// NewPatchEmbed builds the embedding for a (gridH × gridW) patch grid.
func NewPatchEmbed(name string, patchDim, width, gridH, gridW int, r *rng.RNG) *PatchEmbed {
	pe := &PatchEmbed{
		PatchDim: patchDim,
		Width:    width,
		Tokens:   gridH * gridW,
		Proj:     NewLinear(name+".proj", patchDim, width, r),
		Pos:      SinCos2D(width, gridH, gridW),
	}
	return pe
}

// Params returns the projection parameters (positional embeddings are
// fixed and carry no gradient).
func (pe *PatchEmbed) Params() []*Param { return pe.Proj.Params() }

// Apply embeds (batch·Tokens) flattened patches into ctx and adds the
// positional encodings in place.
func (pe *PatchEmbed) Apply(ctx *Arena, patches []float32, batch int) []float32 {
	y := pe.Proj.Apply(ctx, patches, batch*pe.Tokens)
	if ctx.recording {
		pe.rows = nil
	}
	pe.addPos(y, nil)
	return y
}

// ApplyRows embeds some of a batch's patches: row i of patches is the
// patch at position rows[i] of the batch's (batch·Tokens) grid, and
// rows ascends strictly. Each output row is bitwise the row Apply gives
// that patch, its grid position's encoding added. A recording arena
// records patches and rows, which the caller keeps until Backprop: the
// weight gradient then runs over these rows alone, bitwise the
// full-grid product with a zero gradient on every other row.
func (pe *PatchEmbed) ApplyRows(ctx *Arena, patches []float32, rows []int, batch int) []float32 {
	y := pe.Proj.Apply(ctx, patches, len(rows))
	if ctx.recording {
		pe.rows, pe.grid = rows, batch*pe.Tokens
	}
	pe.addPos(y, rows)
	return y
}

// addPos adds to each row r of y the encoding of its grid position:
// rows[r] mod Tokens, or r mod Tokens when rows is nil.
func (pe *PatchEmbed) addPos(y []float32, rows []int) {
	w := pe.Width
	parallel.RangeGrain(len(y)/w, 1+parallel.MinGrain/(w+1), func(lo, hi int) {
		for r := lo; r < hi; r++ {
			g := r
			if rows != nil {
				g = rows[r]
			}
			g %= pe.Tokens
			pos := pe.Pos[g*w : (g+1)*w]
			yi := y[r*w : (r+1)*w]
			for j := range yi {
				yi[j] += pos[j]
			}
		}
	})
}

// Backprop accumulates the projection's parameter gradients
// (positional embeddings are constant, so the gradient passes through
// unchanged to Proj) from dy, one row per row the last recording Apply
// or ApplyRows embedded. Nothing upstream of the patches is trained, so
// no pixel gradient is computed.
func (pe *PatchEmbed) Backprop(dy []float32) {
	if pe.rows == nil {
		pe.Proj.Backprop(nil, dy)
		return
	}
	l := pe.Proj
	checkRows(len(dy), len(pe.rows), l.Out, "PatchEmbed.Backprop")
	tensor.MatMulTARows(l.W.Grad, l.x, dy, pe.rows, l.In, pe.grid, l.Out, true)
	tensor.ColumnSums(l.B.Grad, dy, len(pe.rows), l.Out)
}

// SinCos2D returns the fixed 2-D sine-cosine positional embedding table
// of shape (gridH·gridW × dim), matching the get_2d_sincos_pos_embed
// construction from the MAE reference code. dim must be divisible by 4.
func SinCos2D(dim, gridH, gridW int) []float32 {
	if dim%4 != 0 {
		panic(fmt.Sprintf("nn: SinCos2D dim %d not divisible by 4", dim))
	}
	quarter := dim / 4
	omega := make([]float64, quarter)
	for i := range omega {
		omega[i] = 1.0 / math.Pow(10000, float64(i)/float64(quarter))
	}
	out := make([]float32, gridH*gridW*dim)
	for y := 0; y < gridH; y++ {
		for x := 0; x < gridW; x++ {
			row := out[(y*gridW+x)*dim:]
			// First half encodes the y coordinate, second half the x.
			for i, om := range omega {
				row[i] = float32(math.Sin(float64(y) * om))
				row[quarter+i] = float32(math.Cos(float64(y) * om))
				row[2*quarter+i] = float32(math.Sin(float64(x) * om))
				row[3*quarter+i] = float32(math.Cos(float64(x) * om))
			}
		}
	}
	return out
}
