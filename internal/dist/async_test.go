package dist

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/comm"
	"repro/internal/rng"
)

// normalInputs draws per-rank vectors whose sums round differently in
// every association — the inputs that would expose a schedule whose
// arithmetic depended on when its handles were waited.
func normalInputs(seed uint64, n, elems int) [][]float32 {
	g := rng.New(seed)
	out := make([][]float32, n)
	for r := range out {
		out[r] = make([]float32, elems)
		g.FillNormal(out[r], 0, 1)
	}
	return out
}

// TestIssueStylesBitwiseEqual is the keystone of the overlapped
// training path: over every cell of Op × wire × communicator shape, a
// bucketed schedule waited later (everything in flight at once) or
// chained behind another group's queue leaves every rank with
// bit-for-bit the buffers — and the world with exactly the byte
// accounting — of the same schedule waited at once. Each style is a
// fresh world, so this is also the determinism test: the rounding
// points are fixed by the ring, not by timing.
func TestIssueStylesBitwiseEqual(t *testing.T) {
	const elems = tableBuckets * 6 * 4
	inputs := normalInputs(7, tableWorld, elems)
	for _, op := range tableOps {
		for shape, sh := range tableShapes {
			for _, bf16 := range []bool{false, true} {
				if bf16 && op == OpBroadcast {
					continue
				}
				base, baseStats := runTable(t, op, bf16, shape, 0, inputs)
				for style := 1; style < len(tableStyles); style++ {
					name := fmt.Sprintf("%v/%s/bf16=%v/%s", op, sh.name, bf16, tableStyles[style])
					got, st := runTable(t, op, bf16, shape, style, inputs)
					for id := range got {
						if !sameBits(got[id], base[id]) {
							t.Fatalf("%s: rank %d differs from the schedule waited at once", name, id)
						}
					}
					a, b := st.ByOp(op), baseStats.ByOp(op)
					if a.MeasuredWireBytes != b.MeasuredWireBytes || a.ModelWireBytes != b.ModelWireBytes ||
						(op != OpBroadcast && a.Calls != b.Calls) { // the chained style's gates are broadcasts
						t.Fatalf("%s: accounting %+v != waited-at-once %+v", name, a, b)
					}
				}
			}
		}
	}
}

// TestTwoLevelChaining exercises the HYBRID_SHARD composite: a
// shard-group reduce-scatter chained (via After) into a replica-group
// all-reduce must equal the same two-level schedule waited step by
// step, bitwise, on either wire — including when several buckets are in
// flight at once.
func TestTwoLevelChaining(t *testing.T) {
	const n, g, elems, buckets = 4, 2, 48, 3
	be := elems / buckets
	cl := be / g
	run := func(chained, bf16 bool) [][]float32 {
		bufs := normalInputs(11, n, elems)
		w := New(n, Options{})
		err := w.Run(func(r *Rank) error {
			first := r.ID() / g * g
			sg := w.Subgroup([]int{first, first + 1})
			rg := w.Subgroup([]int{r.ID() % g, r.ID()%g + g})
			idx := r.ID() - first
			buf := bufs[r.ID()]
			var wire []uint16
			if bf16 {
				wire = make([]uint16, elems)
			}
			var hs []*Handle
			for b := buckets - 1; b >= 0; b-- {
				rs := Collective{Op: OpReduceScatter, Buf: buf[b*be : (b+1)*be]}
				ar := Collective{Op: OpAllReduce, Buf: rs.Buf[idx*cl : (idx+1)*cl]}
				if bf16 {
					rs.Wire = wire[b*be : (b+1)*be]
					ar.Wire = rs.Wire[idx*cl : (idx+1)*cl]
				}
				if chained {
					ar.After = sg.Do(r, rs)
					hs = append(hs, rg.Do(r, ar))
				} else {
					sg.Do(r, rs).Wait()
					rg.Do(r, ar).Wait()
				}
			}
			for _, h := range hs {
				h.Wait()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return bufs
	}
	for _, bf16 := range []bool{false, true} {
		stepwise := run(false, bf16)
		chained := run(true, bf16)
		// Compare each rank's owned chunk of each bucket (the rest is ring
		// garbage in both schedules).
		for r := 0; r < n; r++ {
			for b := 0; b < buckets; b++ {
				lo := b*be + r%g*cl
				if !sameBits(stepwise[r][lo:lo+cl], chained[r][lo:lo+cl]) {
					t.Fatalf("bf16=%v rank %d bucket %d: chained schedule differs", bf16, r, b)
				}
			}
		}
	}
}

// TestAbortUnblocksWait: a rank that fails while peers have collectives
// in flight must unblock their Wait with ErrAborted instead of
// deadlocking.
func TestAbortUnblocksWait(t *testing.T) {
	w := New(2, Options{})
	boom := errors.New("boom")
	err := w.Run(func(r *Rank) error {
		if r.ID() == 1 {
			return boom
		}
		buf := make([]float32, 8)
		h := w.root.Do(r, Collective{Op: OpAllReduce, Buf: buf})
		defer func() {
			if p := recover(); p == nil {
				t.Error("Wait did not re-raise the abort")
			} else if e, ok := p.(error); !ok || !errors.Is(e, ErrAborted) {
				t.Errorf("Wait panicked with %v, want ErrAborted", p)
			}
		}()
		h.Wait()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the originating error", err)
	}
}

// TestAbortHybridSubgroups: a rank dying mid-collective in a two-level
// (hybrid) world must unblock every peer parked in a shard *or* replica
// subgroup with ErrAborted — including handles the victim abandoned
// un-Waited — and Run must return the originating error. Run under
// -race in CI: the abort path crosses the queue workers of four ranks
// over four subgroups concurrently.
func TestAbortHybridSubgroups(t *testing.T) {
	const n, g = 4, 2
	boom := errors.New("boom")
	w := New(n, Options{})
	var sawAborted [n]bool
	err := w.Run(func(r *Rank) error {
		first := r.ID() / g * g
		sg := w.Subgroup([]int{first, first + 1})
		rg := w.Subgroup([]int{r.ID() % g, r.ID()%g + g})
		buf := make([]float32, 8)
		if r.ID() == 3 {
			// The victim: issue a shard-group collective it will never
			// Wait (abandoned at exit), then die "mid-step".
			sg.Do(r, Collective{Op: OpReduceScatter, Buf: buf})
			panic(boom)
		}
		defer func() {
			if p := recover(); p == nil {
				t.Errorf("rank %d was not unblocked", r.ID())
			} else if e, ok := p.(error); !ok || !errors.Is(e, ErrAborted) {
				t.Errorf("rank %d panicked with %v, want ErrAborted", r.ID(), p)
			} else {
				sawAborted[r.ID()] = true
				panic(p) // re-raise so Run records the abort
			}
		}()
		// Every survivor has work in flight on both levels: the chained
		// replica all-reduce can only complete if rank 3 participates.
		rs := sg.Do(r, Collective{Op: OpReduceScatter, Buf: buf})
		ar := rg.Do(r, Collective{Op: OpAllReduce, Buf: buf[:4], After: rs})
		rs.Wait()
		ar.Wait()
		// Ranks whose groups exclude rank 3 entirely (rank 0's shard
		// group {0,1} and replica group {0,2}) may get this far; the
		// next world-group collective parks them until the abort.
		w.root.Do(r, Collective{Op: OpAllReduce, Buf: buf[:4]}).Wait()
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Run returned %v, want the originating error", err)
	}
	for id := 0; id < n-1; id++ {
		if !sawAborted[id] {
			t.Errorf("rank %d completed without observing the abort", id)
		}
	}
}

// TestAfterDependencyFailed: an operation ordered behind a handle that
// failed must fail with ErrAborted without touching the ring — even
// when its own group is healthy and the world has not (yet) aborted.
func TestAfterDependencyFailed(t *testing.T) {
	w := New(2, Options{})
	failed := &Handle{done: make(chan struct{}), err: ErrAborted}
	close(failed.done)
	err := w.Run(func(r *Rank) error {
		if r.ID() == 1 {
			return nil
		}
		solo := w.Subgroup([]int{0}) // completes on its own if it ever runs
		h := solo.Do(r, Collective{Op: OpAllReduce, Buf: make([]float32, 4), After: failed})
		defer func() {
			if e, ok := recover().(error); !ok || !errors.Is(e, ErrAborted) {
				t.Errorf("Wait on a handle with a failed dependency: %v, want ErrAborted", e)
			}
		}()
		h.Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls := w.Stats().AllReduce.Calls; calls != 0 {
		t.Fatalf("the dependent collective ran (%d calls)", calls)
	}
}

// TestFIFOOrdering: operations issued on one queue execute in issue
// order — the all-reduce observes the earlier broadcast's result
// (7·n everywhere); the other order would leave 7+(n−1).
func TestFIFOOrdering(t *testing.T) {
	const n = 3
	w := New(n, Options{})
	err := w.Run(func(r *Rank) error {
		buf := make([]float32, n)
		for i := range buf {
			buf[i] = 1
			if r.ID() == 0 {
				buf[i] = 7
			}
		}
		h1 := w.root.Do(r, Collective{Op: OpBroadcast, Buf: buf})
		h2 := w.root.Do(r, Collective{Op: OpAllReduce, Buf: buf})
		h1.Wait()
		h2.Wait()
		for i, v := range buf {
			if v != 7*n {
				return fmt.Errorf("rank %d buf[%d] = %v, want %v", r.ID(), i, v, float32(7*n))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestThrottleRealizesModeledTime: with Options.Throttle the executed
// wall-clock of a collective is at least the α–β model's prediction.
func TestThrottleRealizesModeledTime(t *testing.T) {
	link := comm.Params{Bandwidth: 1e6, HopLat: 1e-6, Launch: 1e-5} // 1 MB/s: 64 KiB AR ≈ 0.2 s
	w := New(2, Options{Link: link, Throttle: 1})
	const elems = 16384
	start := time.Now()
	err := w.Run(func(r *Rank) error {
		w.root.Do(r, Collective{Op: OpAllReduce, Buf: make([]float32, elems)}).Wait()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	want := comm.AllReduce(float64(elems*4), 2, link).Time
	if elapsed < want {
		t.Fatalf("throttled all-reduce took %.3fs, model predicts at least %.3fs", elapsed, want)
	}
	if st := w.Stats(); st.AllReduce.ModelTime <= 0 {
		t.Fatalf("no model time recorded: %+v", st.AllReduce)
	}
}

// TestWorldReuse: queues restart cleanly across Runs of the same world.
func TestWorldReuse(t *testing.T) {
	w := New(2, Options{})
	for run := 0; run < 3; run++ {
		err := w.Run(func(r *Rank) error {
			buf := []float32{1, 2}
			w.root.Do(r, Collective{Op: OpAllReduce, Buf: buf}).Wait()
			if buf[0] != 2 {
				return fmt.Errorf("run %d: got %v", run, buf[0])
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := w.Stats().AllReduce.Calls; got != 3 {
		t.Fatalf("calls %d, want 3", got)
	}
}

// TestConcurrentGroupsSameOpAccounting: two overlapping groups of the
// same ranks keep the same op in flight at once, so each rank's two
// queue workers count bytes against one per-rank counter concurrently.
// No update may be lost (run under -race in CI: a plain += here is a
// data race).
func TestConcurrentGroupsSameOpAccounting(t *testing.T) {
	const n, elems, rounds = 4, 64, 200
	w := New(n, Options{})
	reversed := w.Subgroup([]int{3, 2, 1, 0})
	err := w.Run(func(r *Rank) error {
		a, b := make([]float32, elems), make([]float32, elems)
		for i := 0; i < rounds; i++ {
			ha := w.root.Do(r, Collective{Op: OpAllReduce, Buf: a})
			hb := reversed.Do(r, Collective{Op: OpAllReduce, Buf: b})
			ha.Wait()
			hb.Wait()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st := w.Stats().AllReduce
	want := wantWire(OpAllReduce, n, 2*rounds, elems*4)
	if st.MeasuredWireBytes != want || st.ModelWireBytes != want || st.Calls != 2*rounds {
		t.Fatalf("measured %v modeled %v bytes over %d calls, want %v over %d",
			st.MeasuredWireBytes, st.ModelWireBytes, st.Calls, want, 2*rounds)
	}
}

// TestQueueOnlyExecutionOnOneP: every data collective runs on a queue
// worker, so a rank blocked in Wait must yield to it — a chained
// two-level schedule completes with a single P.
func TestQueueOnlyExecutionOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const n, elems = 4, 16
	w := New(n, Options{})
	err := w.Run(func(r *Rank) error {
		pair := w.Subgroup([]int{r.ID() / 2 * 2, r.ID()/2*2 + 1})
		buf := make([]float32, elems)
		for i := range buf {
			buf[i] = 1
		}
		for i := 0; i < 50; i++ {
			rs := pair.Do(r, Collective{Op: OpReduceScatter, Buf: buf})
			w.root.Do(r, Collective{Op: OpBroadcast, Buf: buf[elems/2:], After: rs}).Wait()
			w.root.Do(r, Collective{Op: OpAllGather, Buf: buf, Wire: make([]uint16, elems)}).Wait()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
