// Package sim is a small deterministic discrete-event engine for
// modeling the per-step execution of distributed training. It models
// exactly what a GPU runtime provides: serial in-order streams
// (resources) onto which tasks are submitted, with cross-stream
// dependencies (events). A task starts when (a) every dependency has
// finished and (b) all earlier tasks submitted to the same stream have
// finished — the FIFO semantics of CUDA/HIP streams and the RCCL
// communication stream.
//
// The FSDP simulator (internal/fsdp) builds one task graph per training
// step: compute tasks for each transformer block's forward/backward on
// the compute stream, all-gather/reduce-scatter/all-reduce tasks on the
// communication stream, with dependencies encoding the chosen sharding
// strategy and prefetch policy. The makespan of the graph is the step
// time; per-stream busy time yields compute/communication exposure.
// internal/serve's tests also replay serving schedules through it (one
// stream per inference engine) as an oracle for the batcher's timing.
package sim

import (
	"fmt"
	"math"
)

// Resource is a serial FIFO stream.
type Resource struct {
	Name  string
	index int
	tasks []*Task
}

// Task is one unit of work on a resource.
type Task struct {
	Name string
	Res  *Resource
	Dur  float64
	Deps []*Task

	// Filled by Run.
	Start, End float64
	scheduled  bool
}

// Engine owns resources and tasks for one simulation.
type Engine struct {
	resources []*Resource
	tasks     []*Task
	ran       bool
}

// New creates an empty engine.
func New() *Engine { return &Engine{} }

// Resource registers a new serial stream.
func (e *Engine) Resource(name string) *Resource {
	r := &Resource{Name: name, index: len(e.resources)}
	e.resources = append(e.resources, r)
	return r
}

// Task submits a task to a resource in program order. Dependencies may
// live on any resource. Duration must be non-negative and finite.
func (e *Engine) Task(name string, r *Resource, dur float64, deps ...*Task) *Task {
	if dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		panic(fmt.Sprintf("sim: invalid duration %v for task %s", dur, name))
	}
	t := &Task{Name: name, Res: r, Dur: dur, Deps: deps}
	r.tasks = append(r.tasks, t)
	e.tasks = append(e.tasks, t)
	return t
}

// Run schedules every task and returns the makespan. Because streams
// are FIFO, only the head of each resource queue is ever eligible; the
// scheduler repeatedly starts the eligible head with the earliest
// feasible start time (ties broken by resource registration order),
// which makes the schedule unique and deterministic. Run panics on
// dependency cycles — the corresponding real system would deadlock.
func (e *Engine) Run() float64 {
	if e.ran {
		panic("sim: Run called twice")
	}
	e.ran = true

	heads := make([]int, len(e.resources))
	remaining := len(e.tasks)
	makespan := 0.0
	for remaining > 0 {
		bestRes := -1
		bestStart := math.Inf(1)
		for ri, r := range e.resources {
			hi := heads[ri]
			if hi >= len(r.tasks) {
				continue
			}
			start, ok := r.tasks[hi].earliestStart(r, hi)
			if !ok {
				continue // blocked on an unscheduled dependency
			}
			if start < bestStart {
				bestRes, bestStart = ri, start
			}
		}
		if bestRes < 0 {
			panic("sim: dependency cycle (no runnable task)")
		}
		t := e.resources[bestRes].tasks[heads[bestRes]]
		t.Start = bestStart
		t.End = bestStart + t.Dur
		t.scheduled = true
		if t.End > makespan {
			makespan = t.End
		}
		heads[bestRes]++
		remaining--
	}
	return makespan
}

// earliestStart computes when the head task could begin, or ok=false if
// a dependency has not been scheduled yet.
func (t *Task) earliestStart(r *Resource, head int) (float64, bool) {
	start := 0.0
	if head > 0 {
		prev := r.tasks[head-1]
		if !prev.scheduled {
			return 0, false
		}
		start = prev.End
	}
	for _, d := range t.Deps {
		if !d.scheduled {
			return 0, false
		}
		if d.End > start {
			start = d.End
		}
	}
	return start, true
}

// BusyTime returns the total scheduled duration on r.
func (e *Engine) BusyTime(r *Resource) float64 {
	var s float64
	for _, t := range r.tasks {
		s += t.Dur
	}
	return s
}
