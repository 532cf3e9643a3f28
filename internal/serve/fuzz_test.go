package serve

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/sim"
)

// checkInvariants asserts the batcher's safety properties on any run:
// every admitted request completes exactly once (served in exactly one
// batch, or shed/rejected in none), batches respect MaxBatch and
// admission order, traces are monotone, engines never overlap, and
// batches launch FIFO.
func checkInvariants(t *testing.T, cfg Config, res *RunResult) {
	t.Helper()
	inBatch := make(map[uint64]int)
	for _, b := range res.Batches {
		if len(b.IDs) == 0 || len(b.IDs) > cfg.MaxBatch {
			t.Fatalf("batch %d size %d outside [1,%d]", b.Seq, len(b.IDs), cfg.MaxBatch)
		}
		if b.Reason != "size" && b.Reason != "deadline" && b.Reason != "drain" {
			t.Fatalf("batch %d has unknown close reason %q", b.Seq, b.Reason)
		}
		if b.Engine < 0 || b.Engine >= cfg.Workers {
			t.Fatalf("batch %d ran on engine %d of %d", b.Seq, b.Engine, cfg.Workers)
		}
		if !(b.CloseSec <= b.StartSec && b.StartSec <= b.DoneSec) {
			t.Fatalf("batch %d times not monotone: %+v", b.Seq, b)
		}
		for j, id := range b.IDs {
			if j > 0 && id <= b.IDs[j-1] {
				t.Fatalf("batch %d violates admission order: %v", b.Seq, b.IDs)
			}
			if prev, dup := inBatch[id]; dup {
				t.Fatalf("request %d in batches %d and %d", id, prev, b.Seq)
			}
			inBatch[id] = b.Seq
		}
	}
	// FIFO launch: start times never decrease across the batch log.
	for i := 1; i < len(res.Batches); i++ {
		if res.Batches[i].StartSec < res.Batches[i-1].StartSec {
			t.Fatalf("batch %d launched before batch %d", i, i-1)
		}
	}
	// Engines serial: per-engine busy intervals must not overlap.
	lastDone := make([]float64, cfg.Workers)
	for _, b := range res.Batches {
		if b.StartSec < lastDone[b.Engine] {
			t.Fatalf("engine %d overlaps batches at %v", b.Engine, b.StartSec)
		}
		lastDone[b.Engine] = b.DoneSec
	}
	shed := 0
	for i, r := range res.Responses {
		if r.ID != uint64(i) {
			t.Fatalf("response %d carries ID %d", i, r.ID)
		}
		tr := r.Trace
		if !(tr.ArrivalSec <= tr.BatchFormSec && tr.BatchFormSec <= tr.ComputeStartSec &&
			tr.ComputeStartSec <= tr.DoneSec) {
			t.Fatalf("request %d trace not monotone: %+v", r.ID, tr)
		}
		_, rode := inBatch[r.ID]
		if r.Err == nil && !rode {
			t.Fatalf("request %d served but missing from every batch", r.ID)
		}
		if r.Err != nil && rode {
			t.Fatalf("request %d failed (%v) yet rode batch %d", r.ID, r.Err, inBatch[r.ID])
		}
		if errors.Is(r.Err, ErrShed) {
			shed++
		}
	}
	if shed != res.Shed {
		t.Fatalf("shed count %d disagrees with responses %d", res.Shed, shed)
	}
	if len(inBatch)+shed > len(res.Responses) {
		t.Fatalf("more outcomes than requests")
	}
}

// simulate runs the serving simulator and holds its schedule to an
// independent oracle: a replay through the internal/sim stream
// scheduler (the machinery the FSDP training simulator runs on). Each
// batch becomes a task on its engine's FIFO stream, gated by a
// dependency that finishes at the batch's close time and priced by the
// same LatencyModel.BatchSec call; both engines compute start/end
// through identical float operations, so any disagreement is a policy
// bug. It returns the run and each batch's dispatch wait as the replay
// sees it.
func simulate(t testing.TB, cfg Config, lat LatencyModel, arrivals []Arrival) (*RunResult, []float64) {
	t.Helper()
	res, err := Simulate(cfg, lat, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	eng := sim.New()
	engines := make([]*sim.Resource, cfg.Workers)
	for e := range engines {
		engines[e] = eng.Resource(fmt.Sprintf("engine%d", e))
	}
	// Batches launch FIFO, so Seq order is launch order — submitting in
	// Seq order preserves each engine stream's true FIFO order.
	closers := make([]*sim.Task, len(res.Batches))
	tasks := make([]*sim.Task, len(res.Batches))
	for i, b := range res.Batches {
		closers[i] = eng.Task(fmt.Sprintf("close%d", b.Seq), eng.Resource(fmt.Sprintf("closer%d", b.Seq)), b.CloseSec)
		tasks[i] = eng.Task(fmt.Sprintf("batch%d", b.Seq), engines[b.Engine], lat.BatchSec(b.Kinds), closers[i])
	}
	waits := make([]float64, len(tasks))
	for i, task := range tasks {
		b := res.Batches[i]
		if task.Start != b.StartSec || task.End != b.DoneSec {
			t.Fatalf("sim replay diverged on batch %d: policy [%v,%v], sim [%v,%v]",
				b.Seq, b.StartSec, b.DoneSec, task.Start, task.End)
		}
		waits[i] = task.Start - closers[i].End
	}
	return res, waits
}

// simpleLat is a hand-set latency curve for policy-only tests.
func simpleLat(perItem, launch float64) LatencyModel {
	var l LatencyModel
	l.LaunchSec = launch
	for k := Kind(0); k < numKinds; k++ {
		l.PerItemSec[k] = perItem
	}
	return l
}

// TestAdversarialPatterns drives the batcher through the arrival
// shapes most likely to break a deadline/size state machine and checks
// both the invariants and the expected batch shapes.
func TestAdversarialPatterns(t *testing.T) {
	lat := simpleLat(1e-3, 1e-4)

	t.Run("zero-wait", func(t *testing.T) {
		// MaxWait 0: every request closes its own batch at its arrival.
		cfg := Config{MaxBatch: 4, MaxWaitSec: 0, QueueCap: 32, Workers: 1}
		arrivals := make([]Arrival, 10)
		for i := range arrivals {
			arrivals[i] = Arrival{AtSec: float64(i) * 1e-4, Kind: Embed}
		}
		res, _ := simulate(t, cfg, lat, arrivals)
		checkInvariants(t, cfg, res)
		if len(res.Batches) != 10 {
			t.Fatalf("%d batches, want 10 singletons", len(res.Batches))
		}
		for _, b := range res.Batches {
			if len(b.IDs) != 1 || b.Reason != "deadline" {
				t.Fatalf("zero-wait batch not a deadline singleton: %+v", b)
			}
		}
	})

	t.Run("all-at-once", func(t *testing.T) {
		// 11 requests at t=0 against MaxBatch 4: three size closes and a
		// deadline remainder of 3.
		cfg := Config{MaxBatch: 4, MaxWaitSec: 5e-3, QueueCap: 32, Workers: 2}
		arrivals := make([]Arrival, 11)
		for i := range arrivals {
			arrivals[i] = Arrival{Kind: Embed}
		}
		res, _ := simulate(t, cfg, lat, arrivals)
		checkInvariants(t, cfg, res)
		sizes := []int{}
		for _, b := range res.Batches {
			sizes = append(sizes, len(b.IDs))
		}
		want := []int{4, 4, 3}
		if len(sizes) != len(want) {
			t.Fatalf("batch sizes %v, want %v", sizes, want)
		}
		for i := range want {
			if sizes[i] != want[i] {
				t.Fatalf("batch sizes %v, want %v", sizes, want)
			}
		}
		if last := res.Batches[2]; last.Reason != "deadline" || last.CloseSec != cfg.MaxWaitSec {
			t.Fatalf("remainder batch: %+v, want deadline close at %v", last, cfg.MaxWaitSec)
		}
	})

	t.Run("staggered-past-deadline", func(t *testing.T) {
		// Each arrival lands just after the previous one's deadline
		// fires: all singleton deadline batches, never a pair.
		cfg := Config{MaxBatch: 4, MaxWaitSec: 1e-3, QueueCap: 32, Workers: 1}
		gap := cfg.MaxWaitSec * 1.01
		arrivals := make([]Arrival, 8)
		for i := range arrivals {
			arrivals[i] = Arrival{AtSec: float64(i) * gap, Kind: Classify}
		}
		res, _ := simulate(t, cfg, lat, arrivals)
		checkInvariants(t, cfg, res)
		for _, b := range res.Batches {
			if len(b.IDs) != 1 || b.Reason != "deadline" {
				t.Fatalf("staggered batch not a deadline singleton: %+v", b)
			}
		}
	})

	t.Run("arrival-on-deadline-instant", func(t *testing.T) {
		// A request arriving exactly when the deadline fires must miss
		// the closing batch (deadline beats arrival at equal times).
		cfg := Config{MaxBatch: 4, MaxWaitSec: 1e-3, QueueCap: 32, Workers: 1}
		arrivals := []Arrival{
			{AtSec: 0, Kind: Embed},
			{AtSec: 1e-3, Kind: Embed},
		}
		res, _ := simulate(t, cfg, lat, arrivals)
		checkInvariants(t, cfg, res)
		if len(res.Batches) != 2 {
			t.Fatalf("%d batches, want 2 (deadline must beat the simultaneous arrival)",
				len(res.Batches))
		}
	})
}

// FuzzBatcher feeds the policy machine arbitrary arrival shapes and
// configurations and asserts the invariants: no request lost, none
// duplicated, none served out of admission order within a batch.
func FuzzBatcher(f *testing.F) {
	f.Add(uint64(1), uint8(20), uint8(4), uint32(2000), uint8(16), uint8(1), uint8(0))
	f.Add(uint64(2), uint8(50), uint8(1), uint32(0), uint8(1), uint8(2), uint8(1))
	f.Add(uint64(3), uint8(40), uint8(8), uint32(100), uint8(8), uint8(3), uint8(2))
	f.Add(uint64(4), uint8(30), uint8(3), uint32(1000000), uint8(4), uint8(1), uint8(1))
	f.Fuzz(func(t *testing.T, seed uint64, nReq, maxBatch uint8, waitMicros uint32, queueCap, workers, pattern uint8) {
		n := int(nReq%64) + 1
		cfg := Config{
			MaxBatch:   int(maxBatch%16) + 1,
			MaxWaitSec: float64(waitMicros%2_000_001) * 1e-6,
			Workers:    int(workers%4) + 1,
		}
		cfg.QueueCap = cfg.MaxBatch + int(queueCap%32)
		r := newSplitMix(seed)
		arrivals := make([]Arrival, n)
		at := 0.0
		for i := range arrivals {
			switch pattern % 3 {
			case 0: // bursty: clumps at shared instants
				if r()%4 == 0 {
					at += float64(r()%1000) * 1e-6
				}
			case 1: // smooth: strictly increasing micro-gaps
				at += float64(r()%500+1) * 1e-6
			default: // storm: everything at t=0
			}
			arrivals[i] = Arrival{AtSec: at, Kind: Kind(r() % uint64(numKinds))}
		}
		res, _ := simulate(t, cfg, simpleLat(1e-4+float64(seed%7)*1e-4, 1e-5), arrivals)
		checkInvariants(t, cfg, res)
		if len(res.Responses) != n {
			t.Fatalf("%d responses for %d requests", len(res.Responses), n)
		}
	})
}

// newSplitMix is a tiny local generator for fuzz-case shaping (the
// repo's rng package would also do, but the fuzzer wants something
// allocation-free).
func newSplitMix(seed uint64) func() uint64 {
	s := seed
	return func() uint64 {
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
}
