package dist

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/comm"
	"repro/internal/rng"
	"repro/internal/tensor"
)

// refSum returns the sequential element-wise sum of the per-rank
// inputs, accumulated in rank order — the reference every collective is
// held to.
func refSum(inputs [][]float32) []float64 {
	out := make([]float64, len(inputs[0]))
	for _, in := range inputs {
		for j, v := range in {
			out[j] += float64(v)
		}
	}
	return out
}

// randInputs draws n random per-rank vectors of the given length.
func randInputs(r *rng.RNG, n, length int) [][]float32 {
	ins := make([][]float32, n)
	for i := range ins {
		ins[i] = make([]float32, length)
		r.FillUniform(ins[i], -1, 1)
	}
	return ins
}

// tolerance for comparing a ring reduction (ring order) against the
// sequential reference (rank order): both sum the same n float32
// values, only the association differs.
func closeEnough(got float32, want float64) bool {
	return math.Abs(float64(got)-want) <= 1e-4*(1+math.Abs(want))
}

func bf16Round(x float32) float32 { return tensor.F32FromBF16(tensor.BF16FromF32(x)) }

// exactInput is rank id's contribution at element i in the oracle
// tests: a small integer scaled by a power of two, so every partial sum
// a ring of ≤ 8 members forms (≤ 36·2) fits bf16's 8-bit significand
// and the reduction is exact on either wire, in any order.
func exactInput(id, i int) float32 { return float32(id+1) * float32(math.Ldexp(1, i%3-1)) }

// inexact is a value bf16 cannot represent: gathering it over the bf16
// wire forces a visible rounding step.
func inexact(id int) float32 { return 1 + float32(id+1)*1e-3 }

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// The table's axes. Every data collective goes through the one call,
// so one driver covers Op × wire × communicator shape × issue style.
var (
	tableOps = []Op{OpAllReduce, OpReduceScatter, OpAllGather, OpBroadcast}

	// Communicator shapes over a 6-rank world: the world ring, the
	// consecutive blocks HYBRID_SHARD shards within, and the strided
	// groups it replicates across.
	tableShapes = []struct {
		name    string
		members func(id int) []int
	}{
		{"world", func(int) []int { return []int{0, 1, 2, 3, 4, 5} }},
		{"consecutive", func(id int) []int { f := id / 3 * 3; return []int{f, f + 1, f + 2} }},
		{"strided", func(id int) []int { return []int{id % 2, id%2 + 2, id%2 + 4} }},
	}

	tableStyles = []string{"waited at once", "waited later", "chained After"}
)

const (
	tableWorld   = 6
	tableBuckets = 3
	tableRoot    = 1 // group-local broadcast root
)

// gatherPoison fills the caller's own chunk of Buf before a bf16
// all-gather, which contributes its chunk of Wire and must leave this
// one untouched.
var gatherPoison = math.Float32frombits(0x7fc0dead)

// runTable executes one cell: every rank splits its input into
// tableBuckets buckets and issues op on each over the shape's group, in
// the given style. Style 2 orders every bucket behind a zero-length
// broadcast on another group's queue — a gate that adds no bytes. A
// bf16 all-gather is set up as the training step sets it up: each
// bucket's own chunk of Wire holds the input's bf16 image, and the own
// chunk of Buf is poisoned with gatherPoison. Returned per world rank:
// the buffer afterwards, or for a reduce-scatter the concatenated
// shards Wait returned.
func runTable(t *testing.T, op Op, bf16 bool, shape, style int, inputs [][]float32) ([][]float32, Stats) {
	t.Helper()
	w := New(tableWorld, Options{})
	out := make([][]float32, tableWorld)
	err := w.Run(func(r *Rank) error {
		g := w.Subgroup(tableShapes[shape].members(r.ID()))
		other := w.root
		if g == other {
			other = w.Subgroup(tableShapes[1].members(r.ID()))
		}
		buf := append([]float32(nil), inputs[r.ID()]...)
		var wire []uint16
		if bf16 && op != OpBroadcast {
			wire = make([]uint16, len(buf))
		}
		be := len(buf) / tableBuckets
		if wire != nil && op == OpAllGather {
			cs := be / g.Size()
			for b := 0; b < tableBuckets; b++ {
				lo := b*be + g.RankOf(r)*cs
				own := buf[lo : lo+cs]
				tensor.ToBF16(wire[lo:lo+cs], own)
				for i := range own {
					own[i] = gatherPoison
				}
			}
		}
		var hs []*Handle
		var shards []float32
		for b := 0; b < tableBuckets; b++ {
			c := Collective{Op: op, Buf: buf[b*be : (b+1)*be], Root: tableRoot}
			if wire != nil {
				c.Wire = wire[b*be : (b+1)*be]
			}
			if style == 2 {
				c.After = other.Do(r, Collective{Op: OpBroadcast})
			}
			h := g.Do(r, c)
			if style == 0 {
				shards = append(shards, h.Wait()...)
			} else {
				hs = append(hs, h)
			}
		}
		for _, h := range hs {
			shards = append(shards, h.Wait()...)
		}
		if op == OpReduceScatter {
			out[r.ID()] = shards
		} else {
			out[r.ID()] = buf
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, w.Stats()
}

// wantWire is the textbook per-rank ring volume of count calls moving
// payload bytes each over n members.
func wantWire(op Op, n, count int, payload float64) float64 {
	frac := float64(n-1) / float64(n)
	switch op {
	case OpAllReduce:
		return float64(count) * 2 * frac * payload
	case OpBroadcast:
		if n == 1 {
			return 0
		}
		return float64(count) * payload
	default:
		return float64(count) * frac * payload
	}
}

// TestDoOracleAndAccounting holds every cell of Op × wire × shape to an
// exact oracle — group-scoped sums, the reduce-scatter shard view, the
// all-gather filling only the other members' chunks (on the bf16 wire
// with the bf16 values their Wire chunks held, the caller's own Buf
// chunk left poisoned), the broadcast root's payload — and its byte
// accounting to the ring formulas: measured == modeled == textbook,
// bf16 exactly half of fp32.
func TestDoOracleAndAccounting(t *testing.T) {
	const elems = tableBuckets * 6 * 2 // every bucket chunks uniformly over 6 and 3 members
	be := elems / tableBuckets
	for _, op := range tableOps {
		for shape, sh := range tableShapes {
			var fp32Bytes float64
			for _, bf16 := range []bool{false, true} {
				if bf16 && op == OpBroadcast {
					continue
				}
				name := fmt.Sprintf("%v/%s/bf16=%v", op, sh.name, bf16)
				gn := len(sh.members(0))
				cs := be / gn
				inputs := make([][]float32, tableWorld)
				for id := range inputs {
					inputs[id] = make([]float32, elems)
					for i := range inputs[id] {
						if op == OpAllGather {
							inputs[id][i] = inexact(id)
						} else {
							inputs[id][i] = exactInput(id, i)
						}
					}
				}
				out, st := runTable(t, op, bf16, shape, 0, inputs)

				for id := 0; id < tableWorld; id++ {
					members := sh.members(id)
					local := 0
					for i, m := range members {
						if m == id {
							local = i
						}
					}
					sum := func(i int) (s float32) {
						for _, m := range members {
							s += inputs[m][i]
						}
						return s
					}
					var want []float32
					for b := 0; b < tableBuckets; b++ {
						for i := b * be; i < (b+1)*be; i++ {
							chunk := (i - b*be) / cs
							switch op {
							case OpAllReduce:
								want = append(want, sum(i))
							case OpReduceScatter:
								if chunk == local {
									want = append(want, sum(i))
								}
							case OpAllGather:
								v := inputs[members[chunk]][i]
								if bf16 && chunk == local {
									v = gatherPoison
								} else if bf16 {
									v = bf16Round(v)
								}
								want = append(want, v)
							case OpBroadcast:
								want = append(want, inputs[members[tableRoot]][i])
							}
						}
					}
					if !sameBits(out[id], want) {
						t.Fatalf("%s rank %d: got %v, want %v", name, id, out[id], want)
					}
				}

				got := st.ByOp(op)
				payload := float64(be * 4)
				if bf16 {
					payload /= 2
				}
				if want := wantWire(op, gn, tableBuckets, payload); got.MeasuredWireBytes != want || got.ModelWireBytes != want {
					t.Errorf("%s: measured %v modeled %v bytes, ring formula %v",
						name, got.MeasuredWireBytes, got.ModelWireBytes, want)
				}
				if got.Calls != tableBuckets || got.ModelTime <= 0 || st.World != tableWorld {
					t.Errorf("%s: calls=%d model time=%v world=%d", name, got.Calls, got.ModelTime, st.World)
				}
				if !bf16 {
					fp32Bytes = got.MeasuredWireBytes
				} else if got.MeasuredWireBytes*2 != fp32Bytes {
					t.Errorf("%s: bf16 moved %v bytes, fp32 %v (want exactly half)", name, got.MeasuredWireBytes, fp32Bytes)
				}
			}
		}
	}
}

// TestReferenceSums sweeps world sizes 1–8 (the degenerate single-rank
// ring included) on the world group: random fp32 inputs against the
// sequential float64 reference with every rank bit-identical, and
// bf16-exact inputs against the exact sum at exactly half the bytes.
func TestReferenceSums(t *testing.T) {
	gen := rng.New(42)
	for n := 1; n <= 8; n++ {
		for _, elems := range []int{n, 4 * n, 16 * n} {
			inputs := randInputs(gen, n, elems)
			want := refSum(inputs)
			cs := elems / n
			ar := make([][]float32, n)
			rs := make([][]float32, n)
			ag := make([][]float32, n)
			bc := make([][]float32, n)
			exact := make([][]float32, n)
			w := New(n, Options{})
			err := w.Run(func(r *Rank) error {
				id := r.ID()
				g := w.root
				clone := func() []float32 { return append([]float32(nil), inputs[id]...) }
				ar[id] = clone()
				g.Do(r, Collective{Op: OpAllReduce, Buf: ar[id]}).Wait()
				rs[id] = append([]float32(nil), g.Do(r, Collective{Op: OpReduceScatter, Buf: clone()}).Wait()...)
				ag[id] = make([]float32, elems)
				copy(ag[id][id*cs:], inputs[id][:cs])
				g.Do(r, Collective{Op: OpAllGather, Buf: ag[id]}).Wait()
				bc[id] = clone()
				g.Do(r, Collective{Op: OpBroadcast, Buf: bc[id], Root: n - 1}).Wait()
				exact[id] = make([]float32, elems)
				for i := range exact[id] {
					exact[id][i] = exactInput(id, i)
				}
				g.Do(r, Collective{Op: OpAllReduce, Buf: exact[id], Wire: make([]uint16, elems)}).Wait()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for id := 0; id < n; id++ {
				for j := range ar[id] {
					if !closeEnough(ar[id][j], want[j]) {
						t.Fatalf("n=%d elems=%d rank=%d all-reduce elem %d: got %v want %v", n, elems, id, j, ar[id][j], want[j])
					}
					if c := j / cs; ag[id][j] != inputs[c][j-c*cs] {
						t.Fatalf("n=%d rank=%d all-gather elem %d: got %v want %v", n, id, j, ag[id][j], inputs[c][j-c*cs])
					}
					if bc[id][j] != inputs[n-1][j] {
						t.Fatalf("n=%d rank=%d broadcast elem %d: got %v want %v", n, id, j, bc[id][j], inputs[n-1][j])
					}
					if want := float32(n*(n+1)/2) * exactInput(0, j); exact[id][j] != want {
						t.Fatalf("n=%d rank=%d bf16 all-reduce elem %d: got %v want %v", n, id, j, exact[id][j], want)
					}
				}
				if len(rs[id]) != cs {
					t.Fatalf("n=%d rank=%d shard length %d want %d", n, id, len(rs[id]), cs)
				}
				for j, v := range rs[id] {
					if !closeEnough(v, want[id*cs+j]) {
						t.Fatalf("n=%d rank=%d reduce-scatter elem %d: got %v want %v", n, id, j, v, want[id*cs+j])
					}
				}
				if !sameBits(ar[id], ar[0]) {
					t.Fatalf("n=%d: ranks 0 and %d disagree after all-reduce", n, id)
				}
			}
			// One fp32 and one bf16 all-reduce of the same length: 4 + 2
			// bytes per element through the 2(n−1)/n ring volume.
			if got, want := w.Stats().AllReduce.MeasuredWireBytes, wantWire(OpAllReduce, n, 1, float64(elems*6)); got != want {
				t.Fatalf("n=%d: fp32 + bf16 all-reduce moved %v bytes, want %v", n, got, want)
			}
		}
	}
}

// TestReduceScatterBF16AccumulatesInFP32: only what crosses the wire is
// bf16. The owner adds the widened incoming partial to its own fp32
// value, so a contribution bf16 cannot represent survives in the shard.
func TestReduceScatterBF16AccumulatesInFP32(t *testing.T) {
	const n, elems = 2, 8
	fine := float32(1 + 1.0/4096) // needs 13 significand bits
	w := New(n, Options{})
	err := w.Run(func(r *Rank) error {
		buf := make([]float32, elems)
		for i := range buf {
			buf[i] = 1
		}
		own := chunkOf(buf, r.ID(), n)
		for i := range own {
			own[i] = fine
		}
		shard := w.root.Do(r, Collective{Op: OpReduceScatter, Buf: buf, Wire: make([]uint16, elems)}).Wait()
		if len(shard) != elems/n || &shard[0] != &own[0] {
			return fmt.Errorf("rank %d: shard is not the owned chunk of buf", r.ID())
		}
		for i, v := range shard {
			if v != 1+fine {
				return fmt.Errorf("rank %d shard[%d] = %v, want %v (bf16 accumulation would give 2)", r.ID(), i, v, 1+fine)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestAccumulateMatchesScalarLoop holds a ring hop's accumulate — the
// vector add, on either wire — to the scalar loop acc[j] += in[j] it
// replaced, bit for bit: lengths 1 to 41 around the eight-lane edge and
// across the bf16 widening block, each at every offset into a larger
// buffer, so neither side starts aligned; the elements just outside the
// chunk must not move.
func TestAccumulateMatchesScalarLoop(t *testing.T) {
	r := rng.New(41)
	lengths := []int{511, 512, 513, 1100}
	for n := 1; n <= 41; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for off := 0; off < 8; off++ {
			for _, bf16 := range []bool{false, true} {
				base := make([]float32, off+n+1)
				r.FillNormal(base, 0, 1)
				f32 := make([]float32, off+n)
				r.FillNormal(f32, 0, 1)
				u16 := make([]uint16, off+n)
				for j := range u16 {
					u16[j] = tensor.BF16FromF32(f32[j])
				}
				in := view{f32: f32[off:]}
				if bf16 {
					in = view{u16: u16[off:]}
				}
				want := append([]float32(nil), base...)
				for j := 0; j < n; j++ {
					v := f32[off+j]
					if bf16 {
						v = tensor.F32FromBF16(u16[off+j])
					}
					want[off+j] += v
				}
				got := append([]float32(nil), base...)
				accumulate(got[off:off+n], in)
				for j := range got {
					if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
						t.Fatalf("n=%d off=%d bf16=%v: acc[%d] = %v, scalar loop gives %v", n, off, bf16, j, got[j], want[j])
					}
				}
			}
		}
	}
}

func TestAllReduceScalar(t *testing.T) {
	for n := 1; n <= 8; n++ {
		outs := make([]float64, n)
		w := New(n, Options{})
		err := w.Run(func(rk *Rank) error {
			outs[rk.ID()] = rk.AllReduceScalar(float64(rk.ID() + 1))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := float64(n*(n+1)) / 2
		for rank, got := range outs {
			if got != want {
				t.Fatalf("n=%d rank=%d: got %v want %v", n, rank, got, want)
			}
		}
	}
}

// TestSequencedCollectives chains several collectives back to back to
// exercise the per-edge handshake across calls (a regression guard for
// view-reuse races; run with -race).
func TestSequencedCollectives(t *testing.T) {
	const n = 4
	const elems = 32
	r := rng.New(5)
	inputs := randInputs(r, n, elems)
	want := refSum(inputs)
	w := New(n, Options{})
	outs := make([][]float32, n)
	err := w.Run(func(rk *Rank) error {
		g := w.root
		buf := append([]float32(nil), inputs[rk.ID()]...)
		for iter := 0; iter < 10; iter++ {
			g.Do(rk, Collective{Op: OpAllReduce, Buf: buf}).Wait()
			g.Do(rk, Collective{Op: OpReduceScatter, Buf: buf}).Wait()
			g.Do(rk, Collective{Op: OpAllGather, Buf: buf}).Wait()
			g.Do(rk, Collective{Op: OpBroadcast, Buf: buf, Root: iter % n}).Wait()
			rk.Barrier()
			copy(buf, inputs[rk.ID()])
		}
		g.Do(rk, Collective{Op: OpAllReduce, Buf: buf}).Wait()
		outs[rk.ID()] = buf
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for rank := 0; rank < n; rank++ {
		for j := range outs[rank] {
			if !closeEnough(outs[rank][j], want[j]) {
				t.Fatalf("rank=%d elem %d: got %v want %v", rank, j, outs[rank][j], want[j])
			}
		}
	}
}

// TestIssueValidation: a malformed Collective is a programming error
// that must fail at the call site — a dist:-prefixed panic on the
// issuing goroutine — without counting a collective entry or enqueuing
// anything, so no worker ever runs a ring its peers will not join.
func TestIssueValidation(t *testing.T) {
	w := New(3, Options{})
	pair := w.Subgroup([]int{0, 1})
	cases := []struct {
		name string
		g    *Group
		c    Collective
		want string
	}{
		{"indivisible", w.root, Collective{Op: OpAllReduce, Buf: make([]float32, 4)},
			"dist: all-reduce buffer length 4 not divisible by group size 3"},
		{"short wire", w.root, Collective{Op: OpReduceScatter, Buf: make([]float32, 6), Wire: make([]uint16, 3)},
			"dist: reduce-scatter bf16 wire scratch length 3, want 6"},
		{"empty wire", w.root, Collective{Op: OpAllGather, Buf: make([]float32, 6), Wire: []uint16{}},
			"dist: all-gather bf16 wire scratch length 0, want 6"},
		{"root out of range", w.root, Collective{Op: OpBroadcast, Buf: make([]float32, 5), Root: 3},
			"dist: broadcast root 3 outside group of 3"},
		{"negative root", w.root, Collective{Op: OpBroadcast, Buf: make([]float32, 5), Root: -1},
			"dist: broadcast root -1 outside group of 3"},
		{"broadcast wire", w.root, Collective{Op: OpBroadcast, Buf: make([]float32, 6), Wire: make([]uint16, 6)},
			"dist: broadcast has no bf16 wire"},
		{"control-plane op", w.root, Collective{Op: OpScalar, Buf: make([]float32, 3)},
			"dist: scalar is not a data collective"},
		{"non-member", pair, Collective{Op: OpAllReduce, Buf: make([]float32, 2)},
			"dist: rank 2 is not a member of subgroup [0 1]"},
	}
	err := w.Run(func(r *Rank) error {
		if r.ID() != 2 {
			return nil
		}
		for _, c := range cases {
			func() {
				defer func() {
					if p := recover(); p == nil || !strings.HasPrefix(fmt.Sprint(p), c.want) {
						t.Errorf("%s: panic %v, want %q", c.name, p, c.want)
					}
				}()
				c.g.Do(r, c.c)
			}()
		}
		if len(r.queues) != 0 || r.CollectiveCalls() != 0 {
			t.Errorf("rejected calls left %d queues and %d collective entries", len(r.queues), r.CollectiveCalls())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls := w.Stats().AllReduce.Calls; calls != 0 {
		t.Errorf("rejected calls were accounted: %d", calls)
	}
}

func TestRunPropagatesPanics(t *testing.T) {
	w := New(2, Options{})
	err := w.Run(func(rk *Rank) error {
		if rk.ID() == 1 {
			panic("boom")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected the panic's error, got %v", err)
	}
}

// TestAbortUnblocksPeers: a rank dying while its peers are parked in a
// collective (or barrier) must surface the original failure, not
// deadlock the world.
func TestAbortUnblocksPeers(t *testing.T) {
	w := New(3, Options{})
	err := w.Run(func(rk *Rank) error {
		if rk.ID() == 1 {
			panic("boom")
		}
		buf := make([]float32, 6)
		w.root.Do(rk, Collective{Op: OpAllReduce, Buf: buf}).Wait() // would hang forever without the abort path
		rk.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected the originating panic, got %v", err)
	}

	// An error return aborts too, and wins over the secondary ErrAborted.
	w2 := New(2, Options{})
	err = w2.Run(func(rk *Rank) error {
		if rk.ID() == 0 {
			return errors.New("rank 0 failed")
		}
		rk.Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "rank 0 failed") {
		t.Fatalf("expected rank 0's error, got %v", err)
	}
}

// TestBenchPinnedShims: the four Rank forms bench/probes.go still calls
// are Do on the world group.
func TestBenchPinnedShims(t *testing.T) {
	const n, elems = 2, 4
	w := New(n, Options{})
	err := w.Run(func(r *Rank) error {
		buf := []float32{1, 2, 3, 4}
		wire := make([]uint16, elems)
		r.AllReduce(buf)                // ×2
		r.AllReduceAsync(buf).Wait()    // ×4
		tensor.ToBF16(wire, buf)        // the gather publishes the caller's wire chunk
		r.AllGatherBF16(buf, nil, wire) // unchanged: small integers are bf16-exact
		shard := r.ReduceScatterBF16(buf, wire)
		for i, v := range shard {
			if want := float32(8 * (r.ID()*elems/n + i + 1)); v != want {
				return fmt.Errorf("rank %d shard[%d] = %v, want %v", r.ID(), i, v, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.AllReduce.Calls != 2 || st.AllGather.Calls != 1 || st.ReduceScatter.Calls != 1 {
		t.Fatalf("shim calls %+v", st)
	}
	if got, want := st.AllGather.MeasuredWireBytes, comm.AllGather(elems*2, n, DefaultLink(n)).WireBytes; got != want {
		t.Fatalf("bf16 all-gather shim moved %v bytes, want %v", got, want)
	}
}
