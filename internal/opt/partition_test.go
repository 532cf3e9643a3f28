package opt

import (
	"testing"

	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/vit"
)

// vitParams builds the real parameter set a small vit.Config produces
// (through the MAE model, exactly as the distributed trainer sees it) —
// the shapes the partition helpers must handle in production.
func vitParams() []*nn.Param {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	cfg := mae.Config{Encoder: enc, DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75}
	return mae.New(cfg, rng.New(3)).Params()
}

// fuzzShapes derives an arbitrary parameter set from a seed. Seed 0 is
// special-cased to the live ViT/MAE shapes so the fuzz corpus always
// covers what vit.Config actually produces.
func fuzzShapes(seed uint64) []*nn.Param {
	if seed == 0 {
		return vitParams()
	}
	r := rng.New(seed)
	n := 1 + int(r.Uint64()%9)
	var ps []*nn.Param
	for i := 0; i < n; i++ {
		var shape []int
		for d := 0; d <= int(r.Uint64()%3); d++ {
			shape = append(shape, 1+int(r.Uint64()%17))
		}
		p := nn.NewParam("f", shape...)
		r.FillUniform(p.Value.Data, -2, 2)
		ps = append(ps, p)
	}
	return ps
}

// FuzzPartitionRoundTrip fuzzes the flat partition helpers over
// arbitrary shard counts, two-level alignment quanta and tensor
// shapes: packing a parameter set into the padded flat space, carving
// it into shards, reassembling from the shards, and unpacking must be
// the identity, with the pad tail provably zero — the invariant the
// FULL_SHARD/HYBRID executors stand on.
func FuzzPartitionRoundTrip(f *testing.F) {
	f.Add(uint64(0), uint8(4), uint8(1))  // ViT shapes, FULL_SHARD-style 4-way
	f.Add(uint64(0), uint8(2), uint8(4))  // ViT shapes, HYBRID 2-shard × 4-replica quantum
	f.Add(uint64(0), uint8(3), uint8(2))  // uneven shard count
	f.Add(uint64(1), uint8(1), uint8(1))  // degenerate single shard
	f.Add(uint64(7), uint8(5), uint8(3))  // remainder-heavy
	f.Add(uint64(9), uint8(16), uint8(2)) // many shards
	f.Fuzz(func(t *testing.T, seed uint64, shardsB, alignMultB uint8) {
		shards := 1 + int(shardsB)%16
		align := shards * (1 + int(alignMultB)%8)
		params := fuzzShapes(seed)
		dim := FlatDim(params)

		p := NewPartition(dim, shards, align)
		if p.Padded < dim || p.Padded%align != 0 || p.Padded-dim >= align {
			t.Fatalf("padding %d→%d is not the least multiple of %d", dim, p.Padded, align)
		}
		if p.ShardLen*p.Shards != p.Padded {
			t.Fatalf("shards %d×%d != padded %d", p.Shards, p.ShardLen, p.Padded)
		}

		flat := make([]float32, p.Padded)
		PackValues(flat, params)
		for i := dim; i < p.Padded; i++ {
			if flat[i] != 0 {
				t.Fatalf("pad element %d = %v, want 0", i, flat[i])
			}
		}

		// Ranges tile [0, Padded) exactly, and Shard views match them.
		next := 0
		assembled := make([]float32, p.Padded)
		for i := 0; i < p.Shards; i++ {
			lo, hi := p.Range(i)
			if lo != next || hi-lo != p.ShardLen {
				t.Fatalf("shard %d range [%d,%d) does not tile (next=%d)", i, lo, hi, next)
			}
			next = hi
			copy(assembled[lo:hi], p.Shard(flat, i))
		}
		if next != p.Padded {
			t.Fatalf("ranges cover %d of %d", next, p.Padded)
		}

		// Unpacking the reassembled flat restores every tensor bitwise.
		clone := make([]*nn.Param, len(params))
		for i, q := range params {
			clone[i] = nn.NewParam(q.Name, q.Value.Shape()...)
		}
		UnpackValues(clone, assembled)
		for i, q := range params {
			for j, v := range q.Value.Data {
				if clone[i].Value.Data[j] != v {
					t.Fatalf("tensor %d element %d: %v != %v", i, j, clone[i].Value.Data[j], v)
				}
			}
		}

		// Scrubbing everything outside one shard keeps exactly that shard.
		if p.Shards > 1 {
			scrubbed := append([]float32(nil), flat...)
			lo, hi := p.Range(1)
			ScrubOutsideSpans(scrubbed, []Span{{lo, hi}})
			for i, v := range scrubbed {
				if i >= lo && i < hi {
					if v != flat[i] {
						t.Fatalf("scrub damaged owned element %d", i)
					}
				} else if v != 0 {
					t.Fatalf("scrub left non-owned element %d = %v", i, v)
				}
			}
		}
	})
}

// TestPartitionViTShardCounts walks the live ViT/MAE parameter set
// through every shard count and replica factor the strategy matrix
// tests execute, asserting the hybrid alignment invariant: the padded
// space divides by the shard count AND each shard divides by the
// replica count.
func TestPartitionViTShardCounts(t *testing.T) {
	params := vitParams()
	dim := FlatDim(params)
	for _, c := range []struct{ shards, repl int }{
		{1, 1}, {2, 1}, {4, 1}, {8, 1}, // DDP / ZeRO-1 / FULL_SHARD worlds
		{2, 2}, {2, 4}, {4, 2}, // HYBRID shard × replica tilings
	} {
		p := NewPartition(dim, c.shards, c.shards*c.repl)
		if p.Padded%c.shards != 0 {
			t.Errorf("shards=%d repl=%d: padded %d not divisible by shards", c.shards, c.repl, p.Padded)
		}
		if p.ShardLen%c.repl != 0 {
			t.Errorf("shards=%d repl=%d: shard %d not divisible by replica count", c.shards, c.repl, p.ShardLen)
		}
	}
}

// TestPartitionPanics: malformed layouts fail loudly.
func TestPartitionPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"negative dim":       func() { NewPartition(-1, 2, 2) },
		"zero shards":        func() { NewPartition(8, 0, 1) },
		"align below shards": func() { NewPartition(8, 4, 2) },
		"align not multiple": func() { NewPartition(8, 4, 6) },
		"range out of shard": func() { NewPartition(8, 2, 2).Range(2) },
		"shard bad buffer":   func() { NewPartition(8, 2, 2).Shard(make([]float32, 4), 0) },
		"scrub bad range":    func() { ScrubOutsideSpans(make([]float32, 4), []Span{{2, 8}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
