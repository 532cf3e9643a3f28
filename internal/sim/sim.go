// Package sim schedules the per-step execution of distributed training
// on serial in-order streams (resources), the model of a GPU runtime:
// tasks are submitted to a stream, with dependencies (events) on tasks
// of any stream. A task starts when every dependency has finished and
// every earlier task on its stream has finished — the FIFO semantics of
// CUDA/HIP streams and the RCCL communication stream.
//
// A dependency is a task already submitted, so submission order is a
// topological order and each task is timed as it is submitted: its
// start is the later of its stream's last end and its dependencies'
// ends. There is no event loop to run and no order for one to pick.
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
	Name string
	end  float64 // End of the last task submitted here
	busy float64 // sum of task durations, in submission order
}

// Task is one unit of work on a resource, timed when it is submitted.
type Task struct {
	Name       string
	Dur        float64
	Start, End float64
}

// Engine holds the makespan of one simulation.
type Engine struct {
	makespan float64
}

// New creates an empty engine.
func New() *Engine { return &Engine{} }

// Resource registers a new serial stream.
func (e *Engine) Resource(name string) *Resource { return &Resource{Name: name} }

// Task submits a task to a resource in program order and schedules it:
// it starts once r's previous task and every dependency have ended.
// Dependencies may live on any resource. Duration must be non-negative
// and finite.
func (e *Engine) Task(name string, r *Resource, dur float64, deps ...*Task) *Task {
	if dur < 0 || math.IsNaN(dur) || math.IsInf(dur, 0) {
		panic(fmt.Sprintf("sim: invalid duration %v for task %s", dur, name))
	}
	start := r.end
	for _, d := range deps {
		if d.End > start {
			start = d.End
		}
	}
	t := &Task{Name: name, Dur: dur, Start: start, End: start + dur}
	r.end = t.End
	r.busy += dur
	if t.End > e.makespan {
		e.makespan = t.End
	}
	return t
}

// Makespan returns the latest end of any task submitted so far.
func (e *Engine) Makespan() float64 { return e.makespan }

// BusyTime returns the total duration of the tasks submitted to r.
func (e *Engine) BusyTime(r *Resource) float64 { return r.busy }
