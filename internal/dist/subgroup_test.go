package dist

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/rng"
)

// blockPartition splits world ranks into consecutive groups of (at
// most) size g; the final group keeps the uneven remainder, so a world
// of 7 with g=3 factorizes as {0 1 2} {3 4 5} {6}.
func blockPartition(world, g int) [][]int {
	var groups [][]int
	for lo := 0; lo < world; lo += g {
		hi := lo + g
		if hi > world {
			hi = world
		}
		members := make([]int, hi-lo)
		for i := range members {
			members[i] = lo + i
		}
		groups = append(groups, members)
	}
	return groups
}

// groupOf returns the partition group containing rank id.
func groupOf(groups [][]int, id int) []int {
	for _, g := range groups {
		for _, m := range g {
			if m == id {
				return g
			}
		}
	}
	panic("rank in no group")
}

// padTo rounds n up to a multiple of g (what opt.PadTo does; inlined to
// keep the package dependency-free).
func padTo(n, g int) int {
	if g <= 1 {
		return n
	}
	return (n + g - 1) / g * g
}

// TestSubgroupCollectivesMatchReference is the property test of the
// group communicators: for world sizes 4–12 factorized into contiguous
// blocks (including uneven remainders) every subgroup's AllReduce,
// ReduceScatter and AllGather must agree with a sequential reference
// over exactly that group's members — with all sibling groups running
// their collectives concurrently (run under -race in CI).
func TestSubgroupCollectivesMatchReference(t *testing.T) {
	r := rng.New(29)
	const rawLen = 13 // deliberately not a multiple of any group size: exercises padding
	for world := 4; world <= 12; world++ {
		for _, gsize := range []int{2, 3, 5} {
			groups := blockPartition(world, gsize)
			inputs := randInputs(r, world, rawLen)
			arOut := make([][]float32, world)
			rsOut := make([][]float32, world)
			agOut := make([][]float32, world)
			w := New(world, Options{})
			err := w.Run(func(rk *Rank) error {
				members := groupOf(groups, rk.ID())
				g := w.Subgroup(members)
				padded := padTo(rawLen, g.Size())

				buf := make([]float32, padded)
				copy(buf, inputs[rk.ID()])
				g.Do(rk, Collective{Op: OpAllReduce, Buf: buf}).Wait()
				arOut[rk.ID()] = buf

				buf = make([]float32, padded)
				copy(buf, inputs[rk.ID()])
				shard := g.Do(rk, Collective{Op: OpReduceScatter, Buf: buf}).Wait()
				rsOut[rk.ID()] = append([]float32(nil), shard...)

				// The reduced shard sits in the caller's chunk: gathering
				// buf in place reassembles the full sum.
				g.Do(rk, Collective{Op: OpAllGather, Buf: buf}).Wait()
				agOut[rk.ID()] = buf
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, members := range groups {
				gn := len(members)
				padded := padTo(rawLen, gn)
				// Sequential reference over this group's padded inputs.
				padIn := make([][]float32, gn)
				for i, m := range members {
					padIn[i] = make([]float32, padded)
					copy(padIn[i], inputs[m])
				}
				want := refSum(padIn)
				for _, m := range members {
					for j, v := range arOut[m] {
						if !closeEnough(v, want[j]) {
							t.Fatalf("world=%d gsize=%d rank=%d all-reduce elem %d: got %v want %v",
								world, gsize, m, j, v, want[j])
						}
					}
				}
				// Every member's reduce-scatter shard is its slice of the sum.
				cs := padded / gn
				for i, m := range members {
					if len(rsOut[m]) != cs {
						t.Fatalf("world=%d gsize=%d rank=%d shard length %d want %d",
							world, gsize, m, len(rsOut[m]), cs)
					}
					for j, v := range rsOut[m] {
						if !closeEnough(v, want[i*cs+j]) {
							t.Fatalf("world=%d gsize=%d rank=%d reduce-scatter elem %d: got %v want %v",
								world, gsize, m, j, v, want[i*cs+j])
						}
					}
				}
				// Gathering the shards reassembles the identical full sum on
				// every member, bit for bit.
				for _, m := range members {
					for j, v := range agOut[m] {
						if v != agOut[members[0]][j] {
							t.Fatalf("world=%d gsize=%d rank=%d all-gather differs from group leader at %d",
								world, gsize, m, j)
						}
					}
				}
			}
		}
	}
}

// TestSubgroupStridedReplicaGroups runs the exact communicator shape
// HYBRID_SHARD uses — contiguous shard groups and strided replica
// groups, all alive at once — and checks scalar reductions and
// broadcasts stay scoped to their group.
func TestSubgroupStridedReplicaGroups(t *testing.T) {
	const world, g = 8, 4 // 2 shard groups of 4, 4 replica groups of 2
	scalarShard := make([]float64, world)
	scalarRepl := make([]float64, world)
	bcast := make([][]float32, world)
	w := New(world, Options{})
	err := w.Run(func(rk *Rank) error {
		first := rk.ID() / g * g
		shardMembers := []int{first, first + 1, first + 2, first + 3}
		replMembers := []int{rk.ID() % g, rk.ID()%g + g}
		shard := w.Subgroup(shardMembers)
		repl := w.Subgroup(replMembers)

		scalarShard[rk.ID()] = shard.AllReduceScalar(rk, float64(rk.ID()))
		scalarRepl[rk.ID()] = repl.AllReduceScalar(rk, float64(rk.ID()))

		// Broadcast the group-local root's payload within each shard group.
		buf := []float32{float32(rk.ID())}
		shard.Do(rk, Collective{Op: OpBroadcast, Buf: buf}).Wait()
		bcast[rk.ID()] = buf

		if shard.RankOf(rk) != rk.ID()-first {
			return fmt.Errorf("rank %d: shard group rank %d", rk.ID(), shard.RankOf(rk))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < world; id++ {
		first := id / g * g
		wantShard := float64(first*g) + 0 + 1 + 2 + 3 // Σ of the block's ids
		if scalarShard[id] != wantShard {
			t.Errorf("rank %d shard-group scalar %v want %v", id, scalarShard[id], wantShard)
		}
		wantRepl := float64(id%g) + float64(id%g+g)
		if scalarRepl[id] != wantRepl {
			t.Errorf("rank %d replica-group scalar %v want %v", id, scalarRepl[id], wantRepl)
		}
		if got := bcast[id][0]; got != float32(first) {
			t.Errorf("rank %d broadcast got %v want %v", id, got, first)
		}
	}
}

// TestSubgroupMemoized: every member resolving the same rank sequence
// observes the same communicator, and a different sequence a different
// one.
func TestSubgroupMemoized(t *testing.T) {
	w := New(4, Options{})
	a := w.Subgroup([]int{0, 2})
	b := w.Subgroup([]int{0, 2})
	if a != b {
		t.Fatal("identical rank sequences resolved to different groups")
	}
	if c := w.Subgroup([]int{2, 0}); c == a {
		t.Fatal("distinct ring orders must be distinct groups")
	}
	if got := a.Size(); got != 2 {
		t.Fatalf("group size %d", got)
	}
	if got := a.Ranks(); got[0] != 0 || got[1] != 2 {
		t.Fatalf("group ranks %v", got)
	}
	// The whole world in ring order resolves to the root communicator,
	// not a duplicate.
	if g := w.Subgroup([]int{0, 1, 2, 3}); g != w.root {
		t.Fatal("identity subgroup did not reuse the world group")
	}
}

// TestSubgroupValidation: malformed subgroups fail loudly (non-member
// collective calls: see TestIssueValidation).
func TestSubgroupValidation(t *testing.T) {
	w := New(4, Options{})
	for name, ranks := range map[string][]int{
		"empty":        {},
		"out-of-range": {0, 4},
		"negative":     {-1, 0},
		"duplicate":    {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s subgroup: expected panic", name)
				}
			}()
			w.Subgroup(ranks)
		}()
	}
	g := w.Subgroup([]int{0, 1})
	if n := g.RankOf(w.ranks[3]); n != -1 {
		t.Fatalf("RankOf non-member = %d", n)
	}
}

// TestSubgroupAccountingComposes: group traffic lands in the parent
// World's Stats — measured bytes against the sending world rank, model
// bytes from world rank 0's view — so the two sides agree for the
// symmetric SPMD schedules the training paths run.
func TestSubgroupAccountingComposes(t *testing.T) {
	const world, elems = 4, 24
	w := New(world, Options{})
	err := w.Run(func(rk *Rank) error {
		shard := w.Subgroup([]int{rk.ID() / 2 * 2, rk.ID()/2*2 + 1}) // {0 1} and {2 3}
		repl := w.Subgroup([]int{rk.ID() % 2, rk.ID()%2 + 2})        // {0 2} and {1 3}
		buf := make([]float32, elems)
		shard.Do(rk, Collective{Op: OpAllGather, Buf: buf}).Wait()
		shard.Do(rk, Collective{Op: OpReduceScatter, Buf: buf}).Wait()
		repl.Do(rk, Collective{Op: OpAllReduce, Buf: buf}).Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	s := w.Stats()
	bytes := float64(elems * 4)
	frac := 1.0 / 2 // (n−1)/n for the 2-rank groups
	cases := []struct {
		name     string
		got      OpStats
		wantWire float64
	}{
		{"all-gather", s.AllGather, frac * bytes},
		{"reduce-scatter", s.ReduceScatter, frac * bytes},
		{"all-reduce", s.AllReduce, 2 * frac * bytes},
	}
	for _, c := range cases {
		if c.got.Calls != 1 {
			t.Errorf("%s: calls=%d (want rank 0's single call)", c.name, c.got.Calls)
		}
		if c.got.MeasuredWireBytes != c.wantWire {
			t.Errorf("%s: measured %v bytes, ring formula %v", c.name, c.got.MeasuredWireBytes, c.wantWire)
		}
		if c.got.ModelWireBytes != c.wantWire {
			t.Errorf("%s: modeled %v bytes, ring formula %v", c.name, c.got.ModelWireBytes, c.wantWire)
		}
	}
}

// TestSubgroupAbortUnblocks: a rank dying before it joins a subgroup
// collective must unblock the members already parked in it (ring edges
// and the group barrier both watch the world's abort), surfacing the
// original failure instead of deadlocking.
func TestSubgroupAbortUnblocks(t *testing.T) {
	w := New(4, Options{})
	err := w.Run(func(rk *Rank) error {
		if rk.ID() == 3 {
			panic("boom")
		}
		g := w.Subgroup([]int{0, 1, 2, 3}) // rank 3 never arrives
		buf := make([]float32, 8)
		g.Do(rk, Collective{Op: OpAllReduce, Buf: buf}).Wait()
		g.AllReduceScalar(rk, 1)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("expected the originating panic, got %v", err)
	}
}
