package vit

import (
	"math"
	"strings"
	"testing"

	"repro/internal/nn"
	"repro/internal/rng"
)

// TestTableI verifies that our analytic parameter counting matches the
// paper's Table I "Parameters [M]" column, which is the first artifact
// the reproduction must regenerate. The ViT-5B row is a known
// paper-internal inconsistency (see PaperParamsM doc comment), so it is
// checked against the value standard ViT algebra yields instead.
func TestTableI(t *testing.T) {
	// 2% tolerance: the paper's round numbers include learned positional
	// embeddings and (for Base) the canonical classification head, which
	// our sin-cos/MAE configuration does not have.
	const tolerance = 0.02
	for _, cfg := range TableI {
		gotM := float64(cfg.EncoderParams()) / 1e6
		want := PaperParamsM[cfg.Name]
		if cfg.Name == "ViT-5B" {
			want = 3802 // standard counting; paper prints 5349 (see config.go)
		}
		rel := math.Abs(gotM-want) / want
		if rel > tolerance {
			t.Errorf("%s: %0.1fM params, want %0.0fM (rel err %.3f)", cfg.Name, gotM, want, rel)
		}
	}
}

func TestTableIOrdering(t *testing.T) {
	// Sizes must be strictly increasing in presentation order.
	prev := int64(0)
	for _, cfg := range TableI {
		n := cfg.EncoderParams()
		if n <= prev {
			t.Fatalf("%s param count %d not larger than previous %d", cfg.Name, n, prev)
		}
		prev = n
	}
}

func TestConfigValidate(t *testing.T) {
	for _, cfg := range TableI {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s invalid: %v", cfg.Name, err)
		}
	}
	ok := Config{Name: "ok", Width: 8, Depth: 1, MLP: 4, Heads: 2, PatchSize: 4, ImageSize: 16, Channels: 3}
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"indivisible heads", func(c *Config) { c.Width, c.Heads = 10, 3 }},
		{"indivisible image/patch", func(c *Config) { c.PatchSize = 5 }},
		{"zero patch", func(c *Config) { c.PatchSize = 0 }},
		{"negative patch", func(c *Config) { c.PatchSize = -4 }},
		{"zero image", func(c *Config) { c.ImageSize = 0 }},
		{"zero channels", func(c *Config) { c.Channels = 0 }},
	} {
		c := ok
		tc.edit(&c)
		err := c.Validate()
		if err == nil || !strings.HasPrefix(err.Error(), "vit: ") {
			t.Errorf("%s: Validate = %v, want a vit: error", tc.name, err)
		}
	}
	if err := ok.Validate(); err != nil {
		t.Fatalf("base config rejected: %v", err)
	}
}

func TestTokensAndPatchDim(t *testing.T) {
	c := Config{Width: 8, Depth: 1, MLP: 16, Heads: 2, PatchSize: 14, ImageSize: 224, Channels: 3}
	if c.Tokens() != 256 {
		t.Fatalf("Tokens=%d want 256", c.Tokens())
	}
	if c.Grid() != 16 {
		t.Fatalf("Grid=%d", c.Grid())
	}
	if c.PatchDim() != 14*14*3 {
		t.Fatalf("PatchDim=%d", c.PatchDim())
	}
}

func TestByName(t *testing.T) {
	c, err := ByName("ViT-3B")
	if err != nil || c.Width != 2816 {
		t.Fatalf("ByName: %+v, %v", c, err)
	}
	if _, err := ByName("ViT-9000"); err == nil {
		t.Fatal("unknown name accepted")
	}
}

func TestAnalogFamilyOrdering(t *testing.T) {
	fam, err := AnalogFamily(32, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) != 4 {
		t.Fatalf("family size %d", len(fam))
	}
	prev := int64(0)
	for _, c := range fam {
		if err := c.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", c.Name, err)
		}
		n := c.EncoderParams()
		if n <= prev {
			t.Fatalf("analog %s not larger than predecessor", c.Name)
		}
		prev = n
	}
}

func TestAnalogUnknown(t *testing.T) {
	if _, err := Analog("ViT-15B", 32, 8, 3); err == nil {
		t.Fatal("expected error: no analog for 15B")
	}
}

func TestEncoderForwardShape(t *testing.T) {
	cfg := Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 8, Channels: 3}
	r := rng.New(2)
	e := NewStack("encoder", cfg.Width, cfg.Depth, cfg.MLP, cfg.Heads, r)
	if got := int64(nn.CountParams(e.Params())); got != int64(cfg.Depth)*cfg.BlockParams()+2*int64(cfg.Width) {
		t.Fatalf("stack params %d", got)
	}
	const batch, tokens = 3, 4
	x := make([]float32, batch*tokens*cfg.Width)
	r.FillNormal(x, 0, 1)
	ctx := nn.NewTrainCtx()
	y := e.Apply(ctx, x, batch, tokens)
	if len(y) != batch*tokens*cfg.Width {
		t.Fatalf("len=%d", len(y))
	}
	dy := make([]float32, len(y))
	r.FillNormal(dy, 0, 1)
	dx := make([]float32, len(x))
	units := 0
	e.Backprop(ctx, dx, dy, func() { units++ })
	if units != 1+cfg.Depth {
		t.Fatalf("Backprop yielded %d times, want the norm and %d blocks", units, cfg.Depth)
	}
}

func TestBlockParamsFormula(t *testing.T) {
	// Cross-check the closed form against a live block.
	r := rng.New(5)
	cfg := Config{Width: 24, Depth: 1, MLP: 48, Heads: 4, PatchSize: 4, ImageSize: 8, Channels: 3}
	b := nn.NewBlock("b", cfg.Width, cfg.MLP, cfg.Heads, r)
	live := int64(nn.CountParams(b.Params()))
	if live != cfg.BlockParams() {
		t.Fatalf("live block params %d != formula %d", live, cfg.BlockParams())
	}
}
