package dist

import (
	"fmt"

	"repro/internal/comm"
)

// Group is a communicator scoped to a subset of a World's ranks: one
// ring over the group's own per-edge channels, so collectives on
// disjoint groups proceed concurrently without interfering (the
// communicator structure behind HYBRID_SHARD's two-level scheme:
// FULL_SHARD collectives inside each shard group, gradient all-reduce
// across each replica group). Do issues the data collectives (see
// async.go); Barrier and AllReduceScalar are the control plane.
//
// A Group's accounting composes with the parent World's Stats: every
// byte a member puts on a group ring edge is counted against that
// member's world rank, and calls are priced by the same α–β model,
// recorded from world rank 0's perspective (see Stats).
//
// The World itself is the degenerate Group over all ranks:
// Subgroup of the identity sequence returns it.
type Group struct {
	w    *World
	n    int
	link comm.Params

	members []int       // world rank ids in ring order
	index   map[int]int // world rank id → group-local rank

	// data[i] carries views from member i to member (i+1)%n; ack[i]
	// carries the matching consumption acknowledgements back.
	data []chan view
	ack  []chan struct{}

	bar     barrier
	scalars []float64
}

func newGroup(w *World, members []int, link comm.Params) *Group {
	g := &Group{
		w:       w,
		n:       len(members),
		link:    link,
		members: append([]int(nil), members...),
		index:   make(map[int]int, len(members)),
		data:    make([]chan view, len(members)),
		ack:     make([]chan struct{}, len(members)),
		scalars: make([]float64, len(members)),
	}
	for i, id := range g.members {
		g.index[id] = i
	}
	g.bar.init(g.n)
	for i := range g.data {
		g.data[i] = make(chan view, 1)
		g.ack[i] = make(chan struct{}, 1)
	}
	return g
}

// Subgroup returns the communicator over the given world ranks, in ring
// order. The slice must be non-empty, without duplicates, and every
// entry must be a valid world rank. Groups are memoized by their exact
// rank sequence — every member calling Subgroup with the same slice
// (the SPMD convention, like MPI_Comm_split) observes the same Group —
// so Subgroup is safe to call before Run or concurrently from inside
// it, and a group survives across steps and Runs.
func (w *World) Subgroup(ranks []int) *Group {
	if len(ranks) == 0 {
		panic("dist: empty subgroup")
	}
	seen := make(map[int]bool, len(ranks))
	for _, id := range ranks {
		if id < 0 || id >= w.n {
			panic(fmt.Sprintf("dist: subgroup rank %d outside world %d", id, w.n))
		}
		if seen[id] {
			panic(fmt.Sprintf("dist: duplicate rank %d in subgroup", id))
		}
		seen[id] = true
	}
	// The whole world in ring order IS the root group: reuse it rather
	// than allocating a second full-world communicator (ZeRO-1 and
	// FULL_SHARD request exactly this shape).
	if len(ranks) == w.n {
		identity := true
		for i, id := range ranks {
			if id != i {
				identity = false
				break
			}
		}
		if identity {
			return w.root
		}
	}
	key := fmt.Sprint(ranks)
	w.subMu.Lock()
	defer w.subMu.Unlock()
	if g, ok := w.subs[key]; ok {
		return g
	}
	g := newGroup(w, ranks, w.link)
	w.subs[key] = g
	w.groups = append(w.groups, g)
	// A world that already aborted poisons new groups immediately so a
	// straggler rank cannot park in a dead group's barrier.
	select {
	case <-w.abort:
		g.bar.doAbort()
	default:
	}
	return g
}

// Size returns the number of member ranks.
func (g *Group) Size() int { return g.n }

// Ranks returns the member world ranks in ring order.
func (g *Group) Ranks() []int { return append([]int(nil), g.members...) }

// RankOf returns r's group-local rank, or -1 if r is not a member.
func (g *Group) RankOf(r *Rank) int {
	if id, ok := g.index[r.ID()]; ok {
		return id
	}
	return -1
}

// on resolves the calling rank's member handle, panicking for
// non-members (a collective entered by a rank outside the group can
// only deadlock).
func (g *Group) on(r *Rank) member {
	id, ok := g.index[r.id]
	if !ok {
		panic(fmt.Sprintf("dist: rank %d is not a member of subgroup %v", r.id, g.members))
	}
	return member{g: g, r: r, id: id}
}

// Barrier blocks until every member has entered it.
func (g *Group) Barrier(r *Rank) { g.on(r); g.bar.wait() }

// AllReduceScalar sums a float64 control value across the group's
// members in group-rank order (deterministic, bit-identical result on
// every member).
func (g *Group) AllReduceScalar(r *Rank, v float64) float64 {
	return g.on(r).enter(OpScalar).allReduceScalar(v)
}
