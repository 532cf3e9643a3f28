// Package vit assembles Vision Transformer block stacks from the layers
// in internal/nn and holds the registry of the exact model architectures
// studied in the paper (Table I), together with analytic parameter
// counting used both by the tests and by the Frontier performance
// simulator.
package vit

import "fmt"

// Config describes a ViT encoder variant. Width, Depth, MLP and Heads
// follow Table I of the paper; PatchSize, ImageSize and Channels
// describe the input pipeline.
type Config struct {
	Name      string
	Width     int // embedding size
	Depth     int // encoder layers
	MLP       int // MLP hidden size
	Heads     int // attention heads per layer
	PatchSize int
	ImageSize int
	Channels  int
}

// Tokens returns the number of patch tokens per image.
func (c Config) Tokens() int {
	g := c.ImageSize / c.PatchSize
	return g * g
}

// Grid returns the patch-grid side length.
func (c Config) Grid() int { return c.ImageSize / c.PatchSize }

// PatchDim returns the flattened patch dimensionality.
func (c Config) PatchDim() int { return c.PatchSize * c.PatchSize * c.Channels }

// Validate reports configuration errors (indivisible widths etc.).
func (c Config) Validate() error {
	if c.Width <= 0 || c.Depth <= 0 || c.MLP <= 0 || c.Heads <= 0 {
		return fmt.Errorf("vit: non-positive dimension in %+v", c)
	}
	if c.Width%c.Heads != 0 {
		return fmt.Errorf("vit: width %d not divisible by heads %d", c.Width, c.Heads)
	}
	if c.Width%4 != 0 {
		return fmt.Errorf("vit: width %d not divisible by 4 (sin-cos embedding)", c.Width)
	}
	if c.ImageSize%c.PatchSize != 0 {
		return fmt.Errorf("vit: image %d not divisible by patch %d", c.ImageSize, c.PatchSize)
	}
	return nil
}

// BlockParams returns the exact trainable-parameter count of one
// pre-norm transformer block at this width: fused QKV and output
// projections with bias, two-layer MLP with bias, two LayerNorms.
func (c Config) BlockParams() int64 {
	w, m := int64(c.Width), int64(c.MLP)
	qkv := w*3*w + 3*w
	proj := w*w + w
	mlp := w*m + m + m*w + w
	ln := 2 * (2 * w)
	return qkv + proj + mlp + ln
}

// EncoderParams returns the exact trainable-parameter count of the full
// encoder: patch projection, Depth blocks, and the final LayerNorm.
// Positional embeddings are fixed sin-cos (paper follows MAE) and carry
// no parameters.
func (c Config) EncoderParams() int64 {
	pd := int64(c.PatchDim())
	w := int64(c.Width)
	embed := pd*w + w
	return embed + int64(c.Depth)*c.BlockParams() + 2*w
}

// Paper Table I: the six ViT variants studied, with the patch sizes the
// paper uses (16 for Base per the original ViT paper, 14 for Huge and
// all billion-scale models). ImageSize 224 is the canonical resolution
// for parameter counting and the performance model; the pretraining
// runs in Section V use 512×512, which changes token count but not
// parameter count.
var (
	ViTBase = Config{Name: "ViT-Base", Width: 768, Depth: 12, MLP: 3072, Heads: 12,
		PatchSize: 16, ImageSize: 224, Channels: 3}
	ViTHuge = Config{Name: "ViT-Huge", Width: 1280, Depth: 32, MLP: 5120, Heads: 16,
		PatchSize: 14, ImageSize: 224, Channels: 3}
	ViT1B = Config{Name: "ViT-1B", Width: 1536, Depth: 32, MLP: 6144, Heads: 16,
		PatchSize: 14, ImageSize: 224, Channels: 3}
	ViT3B = Config{Name: "ViT-3B", Width: 2816, Depth: 32, MLP: 11264, Heads: 32,
		PatchSize: 14, ImageSize: 224, Channels: 3}
	ViT5B = Config{Name: "ViT-5B", Width: 1792, Depth: 56, MLP: 15360, Heads: 16,
		PatchSize: 14, ImageSize: 224, Channels: 3}
	ViT15B = Config{Name: "ViT-15B", Width: 5040, Depth: 48, MLP: 20160, Heads: 48,
		PatchSize: 14, ImageSize: 224, Channels: 3}
)

// TableI lists the paper's six variants in presentation order.
var TableI = []Config{ViTBase, ViTHuge, ViT1B, ViT3B, ViT5B, ViT15B}

// PaperParamsM records the "Parameters [M]" column of Table I as
// printed in the paper, used by tests and EXPERIMENTS.md comparisons.
//
// Note: five of the six rows agree with standard ViT parameter counting
// to <1%. The ViT-5B row as printed (5349M) is not reachable from its
// own (width, depth, MLP) via standard ViT algebra, which yields
// ≈3802M; it matches only if the MLP were counted with three
// projection matrices (a gated/SwiGLU MLP). We implement the standard
// architecture the paper describes and record the discrepancy in
// EXPERIMENTS.md.
var PaperParamsM = map[string]float64{
	"ViT-Base": 87, "ViT-Huge": 635, "ViT-1B": 914,
	"ViT-3B": 3067, "ViT-5B": 5349, "ViT-15B": 14720,
}

// ByName returns the Table I config with the given name.
func ByName(name string) (Config, error) {
	for _, c := range TableI {
		if c.Name == name {
			return c, nil
		}
	}
	return Config{}, fmt.Errorf("vit: unknown model %q", name)
}

// Analog returns a width-scaled laptop-trainable analog of a Table I
// variant, preserving the paper's size ordering (Base < Huge < 1B <
// 3B). The analog keeps the relative shape — wider and deeper together
// — so that capacity grows monotonically, which is what the paper's
// Section V trend depends on.
func Analog(name string, imageSize, patchSize, channels int) (Config, error) {
	type shape struct{ w, d, m, h int }
	shapes := map[string]shape{
		"ViT-Base": {w: 32, d: 2, m: 64, h: 2},
		"ViT-Huge": {w: 48, d: 3, m: 128, h: 4},
		"ViT-1B":   {w: 64, d: 4, m: 192, h: 4},
		"ViT-3B":   {w: 96, d: 5, m: 288, h: 8},
	}
	s, ok := shapes[name]
	if !ok {
		return Config{}, fmt.Errorf("vit: no analog defined for %q", name)
	}
	cfg := Config{
		Name:      name + "-analog",
		Width:     s.w,
		Depth:     s.d,
		MLP:       s.m,
		Heads:     s.h,
		PatchSize: patchSize,
		ImageSize: imageSize,
		Channels:  channels,
	}
	return cfg, cfg.Validate()
}

// AnalogFamily returns the four analog configs in Table I order.
func AnalogFamily(imageSize, patchSize, channels int) ([]Config, error) {
	var out []Config
	for _, n := range []string{"ViT-Base", "ViT-Huge", "ViT-1B", "ViT-3B"} {
		c, err := Analog(n, imageSize, patchSize, channels)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}
