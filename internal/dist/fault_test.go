package dist

import (
	"errors"
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/comm"
)

// TestFaultPlanKillsAtIndex: the planned death fires exactly at the
// 1-based collective-entry index, the victim's error surfaces through
// Run wrapped around ErrInjectedFault, and every surviving rank
// unblocks with ErrAborted instead of deadlocking.
func TestFaultPlanKillsAtIndex(t *testing.T) {
	const n, kills = 4, 5
	w := New(n, Options{Fault: FaultPlan{Rank: 2, Call: kills}})
	err := w.Run(func(r *Rank) error {
		buf := make([]float32, 4*n)
		for i := 0; i < 10; i++ {
			w.root.Do(r, Collective{Op: OpAllReduce, Buf: buf}).Wait()
		}
		return nil
	})
	if !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("Run returned %v, want ErrInjectedFault in the chain", err)
	}
	var f *InjectedFault
	if !errors.As(err, &f) {
		t.Fatalf("Run error %v does not carry *InjectedFault", err)
	}
	if f.Rank != 2 || f.Call != kills || f.Op != OpAllReduce {
		t.Fatalf("fault fired at %+v, want rank 2 call %d all-reduce", f, kills)
	}
	// The victim entered exactly Call collectives; survivors parked in
	// the ring at the same index (entered, never completed).
	if got := w.ranks[2].CollectiveCalls(); got != kills {
		t.Fatalf("victim entered %d collectives, want %d", got, kills)
	}
}

// TestFaultPlanMatrix drives the injected death through every path the
// elastic driver has to survive — fp32 and bf16 wire, world-group and
// two-level subgroup schedules — in each issue style (waited at once,
// waited later, chained After). Entries are counted at issue on the
// rank's own goroutine, so for one schedule the death site is the same
// in every style: ErrInjectedFault from Run, at the planned index, with
// no deadlock.
func TestFaultPlanMatrix(t *testing.T) {
	const n, iters, call = 4, 8, 6
	// issue runs iters steps of step (each on buffers of its own, so
	// several may be in flight), waiting each step's handle at once or
	// all of them at the end.
	issue := func(later bool, step func() *Handle) {
		var hs []*Handle
		for i := 0; i < iters; i++ {
			if h := step(); later {
				hs = append(hs, h)
			} else {
				h.Wait()
			}
		}
		for _, h := range hs {
			h.Wait()
		}
	}
	schedules := []struct {
		name string
		step func(w *World, r *Rank, chained bool) func() *Handle
	}{
		{"world/fp32", func(w *World, r *Rank, _ bool) func() *Handle {
			return func() *Handle {
				return w.root.Do(r, Collective{Op: OpAllReduce, Buf: make([]float32, 4*n)})
			}
		}},
		{"world/bf16", func(w *World, r *Rank, _ bool) func() *Handle {
			return func() *Handle {
				return w.root.Do(r, Collective{Op: OpAllReduce, Buf: make([]float32, 4*n), Wire: make([]uint16, 4*n)})
			}
		}},
		{"subgroup/two-level", func(w *World, r *Rank, chained bool) func() *Handle {
			// The hybrid shape: reduce-scatter in consecutive pairs,
			// all-reduce across the strided replica pairs.
			first := r.ID() / 2 * 2
			sg := w.Subgroup([]int{first, first + 1})
			rg := w.Subgroup([]int{r.ID() % 2, r.ID()%2 + 2})
			return func() *Handle {
				buf := make([]float32, 8)
				shard := buf[(r.ID()-first)*4:][:4]
				rs := sg.Do(r, Collective{Op: OpReduceScatter, Buf: buf})
				if !chained {
					rs.Wait()
					rs = nil
				}
				return rg.Do(r, Collective{Op: OpAllReduce, Buf: shard, After: rs})
			}
		}},
	}
	styles := []struct {
		name           string
		later, chained bool
	}{{"waited at once", false, false}, {"waited later", true, false}, {"chained After", true, true}}
	for _, sc := range schedules {
		for _, victim := range []int{0, 3} {
			var site string
			for _, st := range styles {
				t.Run(fmt.Sprintf("%s/%s/rank=%d", sc.name, st.name, victim), func(t *testing.T) {
					w := New(n, Options{Fault: FaultPlan{Rank: victim, Call: call}})
					err := w.Run(func(r *Rank) error {
						issue(st.later, sc.step(w, r, st.chained))
						return nil
					})
					if !errors.Is(err, ErrInjectedFault) {
						t.Fatalf("Run returned %v, want ErrInjectedFault", err)
					}
					var f *InjectedFault
					if !errors.As(err, &f) || f.Rank != victim || f.Call != call {
						t.Fatalf("fault detail %v, want rank %d call %d", err, victim, call)
					}
					if site == "" {
						site = err.Error()
					} else if err.Error() != site {
						t.Fatalf("death site depends on the issue style:\n  %s\n  %v", site, err)
					}
				})
			}
		}
	}
}

// TestFaultPlanDeterministic: the same program with the same plan dies
// at the same place every run — the property that makes kill-at-epoch-E
// elasticity tests reproducible.
func TestFaultPlanDeterministic(t *testing.T) {
	run := func() error {
		w := New(3, Options{Fault: FaultPlan{Rank: 1, Call: 4}})
		return w.Run(func(r *Rank) error {
			buf := make([]float32, 3)
			for i := 0; i < 6; i++ {
				w.root.Do(r, Collective{Op: OpAllReduce, Buf: buf}).Wait()
				r.AllReduceScalar(1)
			}
			return nil
		})
	}
	a, b := run(), run()
	if a == nil || b == nil {
		t.Fatal("fault did not fire")
	}
	if a.Error() != b.Error() {
		t.Fatalf("non-deterministic death site:\n  %v\n  %v", a, b)
	}
	var f *InjectedFault
	if !errors.As(a, &f) || f.Op != OpScalar {
		// calls alternate all-reduce, scalar, ... — entry 4 is a scalar.
		t.Fatalf("death site %v, want the 4th entry (scalar)", a)
	}
}

// TestFaultPlanDisarmed: the zero plan and a Call beyond the schedule
// inject nothing.
func TestFaultPlanDisarmed(t *testing.T) {
	for _, plan := range []FaultPlan{{}, {Rank: 1, Call: 1000}} {
		w := New(2, Options{Fault: plan})
		err := w.Run(func(r *Rank) error {
			w.root.Do(r, Collective{Op: OpAllReduce, Buf: make([]float32, 2)}).Wait()
			return nil
		})
		if err != nil {
			t.Fatalf("plan %+v injected: %v", plan, err)
		}
	}
}

// TestFaultPlanValidation: plans and skews targeting ranks outside the
// world fail at New, not mid-run.
func TestFaultPlanValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("fault rank", func() { New(2, Options{Fault: FaultPlan{Rank: 2, Call: 1}}) })
	mustPanic("negative fault rank", func() { New(2, Options{Fault: FaultPlan{Rank: -1, Call: 1}}) })
	mustPanic("skew rank", func() { New(2, Options{ThrottleSkew: map[int]float64{5: 2}}) })
}

// TestThrottleSkewStraggler: one rank with a throttle skew slows every
// peer to its pace — the synchronous-lockstep cost the simulator's α–β
// model predicts. The skewed run's wall clock must carry at least the
// straggler's modeled collective time: time.Sleep never returns early,
// so that floor is exact and always checked. That the baseline stays
// below it (the cost is attributable to the skew) races the OS
// scheduler, so those comparisons run only under OVERLAP_VALIDATE=1
// (CI's calibrate job).
func TestThrottleSkewStraggler(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	const n, rounds, skew = 4, 4, 4.0
	link := comm.Params{Bandwidth: 2e6, HopLat: 1e-6, Launch: 1e-5} // 2 MB/s: 32 KiB AR ≈ 25 ms
	elems := 8192
	run := func(skewed bool) (time.Duration, Stats) {
		opts := Options{Link: link, Throttle: 1}
		if skewed {
			opts.ThrottleSkew = map[int]float64{n - 1: skew}
		}
		w := New(n, opts)
		start := time.Now()
		err := w.Run(func(r *Rank) error {
			buf := make([]float32, elems)
			for i := 0; i < rounds; i++ {
				w.root.Do(r, Collective{Op: OpAllReduce, Buf: buf}).Wait()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return time.Since(start), w.Stats()
	}
	base, st := run(false)
	skewedWall, _ := run(true)
	modeled := st.AllReduce.ModelTime // total over all rounds, rank 0's schedule
	if modeled <= 0 {
		t.Fatal("no modeled time recorded")
	}
	// Lockstep: every collective completes no earlier than the straggler
	// finishes sleeping, so the skewed wall carries ≥ skew × modeled
	// collective time while the baseline carries ≥ 1 ×.
	if skewedWall.Seconds() < skew*modeled {
		t.Errorf("skewed wall %.3fs below the lockstep prediction %.3fs",
			skewedWall.Seconds(), skew*modeled)
	}
	if base.Seconds() < modeled {
		t.Errorf("baseline wall %.3fs below its own modeled collective time %.3fs", base.Seconds(), modeled)
	}
	if os.Getenv("OVERLAP_VALIDATE") == "" {
		return
	}
	if base.Seconds() >= skew*modeled {
		t.Errorf("baseline wall %.3fs already at the skewed prediction %.3fs — straggler cost not measurable",
			base.Seconds(), skew*modeled)
	}
	if skewedWall <= base {
		t.Errorf("skewed run (%v) not slower than baseline (%v)", skewedWall, base)
	}
}
