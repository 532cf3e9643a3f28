package sim

import (
	"math"
	"testing"
)

func TestSerialChain(t *testing.T) {
	e := New()
	r := e.Resource("compute")
	a := e.Task("a", r, 1)
	b := e.Task("b", r, 2, a)
	c := e.Task("c", r, 3, b)
	ms := e.Makespan()
	if ms != 6 {
		t.Fatalf("makespan=%v want 6", ms)
	}
	if a.Start != 0 || b.Start != 1 || c.Start != 3 {
		t.Fatalf("starts: %v %v %v", a.Start, b.Start, c.Start)
	}
}

func TestFIFOWithoutExplicitDeps(t *testing.T) {
	// Same-stream tasks serialize even without dependencies.
	e := New()
	r := e.Resource("stream")
	e.Task("a", r, 5)
	b := e.Task("b", r, 1)
	ms := e.Makespan()
	if ms != 6 || b.Start != 5 {
		t.Fatalf("FIFO violated: makespan=%v b.Start=%v", ms, b.Start)
	}
}

func TestTwoStreamsOverlap(t *testing.T) {
	// Independent work on two streams overlaps fully.
	e := New()
	comp := e.Resource("compute")
	comm := e.Resource("comm")
	e.Task("c1", comp, 4)
	e.Task("m1", comm, 3)
	ms := e.Makespan()
	if ms != 4 {
		t.Fatalf("makespan=%v want 4 (full overlap)", ms)
	}
	if e.BusyTime(comp) != 4 || e.BusyTime(comm) != 3 {
		t.Fatal("busy accounting wrong")
	}
}

func TestCrossStreamDependency(t *testing.T) {
	// compute waits for a gather on the comm stream: exposure appears.
	e := New()
	comp := e.Resource("compute")
	comm := e.Resource("comm")
	g := e.Task("gather", comm, 2)
	c := e.Task("block", comp, 3, g)
	ms := e.Makespan()
	if c.Start != 2 || ms != 5 {
		t.Fatalf("start=%v makespan=%v", c.Start, ms)
	}
}

func TestPrefetchPatternOverlapsCommWithCompute(t *testing.T) {
	// The canonical FSDP pattern: AG_i must finish before C_i; AG_{i+1}
	// can run during C_i. With equal durations the pipeline hides all
	// but the first gather.
	e := New()
	comp := e.Resource("compute")
	comm := e.Resource("comm")
	const L = 8
	var prevCompute *Task
	for i := 0; i < L; i++ {
		ag := e.Task("ag", comm, 1)
		deps := []*Task{ag}
		if prevCompute != nil {
			deps = append(deps, prevCompute)
		}
		prevCompute = e.Task("c", comp, 1, deps...)
	}
	ms := e.Makespan()
	if ms != L+1 {
		t.Fatalf("pipelined makespan=%v want %d", ms, L+1)
	}
}

func TestSerializedPatternNoOverlap(t *testing.T) {
	// Prefetch "None": each gather depends on the previous compute, so
	// the two streams strictly alternate.
	e := New()
	comp := e.Resource("compute")
	comm := e.Resource("comm")
	const L = 8
	var prev *Task
	for i := 0; i < L; i++ {
		var ag *Task
		if prev == nil {
			ag = e.Task("ag", comm, 1)
		} else {
			ag = e.Task("ag", comm, 1, prev)
		}
		prev = e.Task("c", comp, 1, ag)
	}
	ms := e.Makespan()
	if ms != 2*L {
		t.Fatalf("serialized makespan=%v want %d", ms, 2*L)
	}
}

func TestDeterministicTieBreak(t *testing.T) {
	run := func() []float64 {
		e := New()
		a := e.Resource("a")
		b := e.Resource("b")
		t1 := e.Task("t1", a, 1)
		t2 := e.Task("t2", b, 1)
		t3 := e.Task("t3", a, 1, t2)
		t4 := e.Task("t4", b, 1, t1)
		return []float64{t1.Start, t2.Start, t3.Start, t4.Start}
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("schedule not deterministic")
		}
	}
}

func TestTimesIndependentOfStreamInterleaving(t *testing.T) {
	// A task's times depend only on its stream predecessor and its
	// dependencies, so two topological submission orders of one graph
	// give the same schedule.
	run := func(aFirst bool) []float64 {
		e := New()
		a := e.Resource("a")
		b := e.Resource("b")
		var t1, t2 *Task
		if aFirst {
			t1 = e.Task("t1", a, 1)
			t2 = e.Task("t2", b, 2)
		} else {
			t2 = e.Task("t2", b, 2)
			t1 = e.Task("t1", a, 1)
		}
		t3 := e.Task("t3", a, 1, t2)
		t4 := e.Task("t4", b, 1, t1)
		return []float64{t1.Start, t2.Start, t3.Start, t4.Start, e.Makespan()}
	}
	x, y := run(true), run(false)
	want := []float64{0, 0, 2, 2, 3}
	for i := range want {
		if x[i] != want[i] || y[i] != want[i] {
			t.Fatalf("schedules %v and %v, want %v", x, y, want)
		}
	}
}

func TestInvalidDurationPanics(t *testing.T) {
	e := New()
	r := e.Resource("r")
	for _, d := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("duration %v accepted", d)
				}
			}()
			e.Task("bad", r, d)
		}()
	}
}

func TestZeroDurationTasks(t *testing.T) {
	e := New()
	r := e.Resource("r")
	a := e.Task("a", r, 0)
	b := e.Task("b", r, 0, a)
	if ms := e.Makespan(); ms != 0 {
		t.Fatalf("makespan=%v", ms)
	}
	if b.Start != 0 {
		t.Fatal("zero tasks should chain at t=0")
	}
}

func TestMakespanEqualsCriticalPath(t *testing.T) {
	// Diamond: a → (b, c) → d on independent streams; critical path is
	// a + max(b, c) + d.
	e := New()
	r1 := e.Resource("r1")
	r2 := e.Resource("r2")
	a := e.Task("a", r1, 2)
	b := e.Task("b", r1, 3, a)
	c := e.Task("c", r2, 5, a)
	d := e.Task("d", r2, 1, b, c)
	ms := e.Makespan()
	if ms != 2+5+1 {
		t.Fatalf("makespan=%v want 8", ms)
	}
	if d.Start != 7 {
		t.Fatalf("d.Start=%v", d.Start)
	}
}
