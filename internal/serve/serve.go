// Package serve is the inference side of the north star: a
// request-driven server over a trained checkpoint that answers the
// three downstream workloads — encoder embeddings, linear-probe
// classification, and per-patch segmentation — behind a dynamic
// batcher. Requests enter a bounded admission queue (overflow sheds),
// the batcher closes a batch when it reaches MaxBatch requests or the
// oldest waiting request ages past MaxWait, and closed batches run
// FIFO on a fixed pool of inference engines that share one read-only
// copy of the model weights (a frozen nn arena per worker, no
// per-worker weight copies, the same blocked GEMM kernels and parallel
// pool as training).
//
// Following the repo's discipline that every executed system is held
// to a model of itself, one policy state machine (batcher: admit,
// close, launch, finish) runs in three forms, each returning a
// RunResult that Summarize reports:
//
//   - Server / RunWall: the policy stepped under a mutex by the host
//     clock — Submit/Drain from any goroutine, time.AfterFunc
//     deadlines, one goroutine per engine.
//   - RunVirtual: the policy driven by a virtual clock — compute is
//     executed for real (responses are bitwise reproducible), but time
//     is taken from a batch-size-dependent latency model, so a whole
//     load-generation run is deterministic to the last float.
//   - Simulate: the serving simulator — the virtual clock with no
//     compute at all. Virtual runs must match it exactly; wall-clock
//     runs are held to it within a tolerance band by the validation
//     suite; and the tests replay its schedules through the
//     internal/sim stream scheduler as an independent oracle.
//
// Per-request latency is traced at four points (admission, batch
// close, compute launch, completion) as a trace.RequestTrace, which is
// what the p50/p99 reporting and the measured-vs-modeled comparisons
// consume.
package serve

import (
	"errors"
	"fmt"
	"math"
)

// Kind selects a request's workload.
type Kind uint8

// The three served workloads over the frozen encoder.
const (
	// Embed returns the mean-pooled encoder features (the linear-probe
	// representation).
	Embed Kind = iota
	// Classify returns classification logits from the fitted probe
	// head over the pooled features.
	Classify
	// Segment returns one class label per patch token from the fitted
	// segmentation head over per-token features.
	Segment

	numKinds
)

// String names the kind for reports and traces.
func (k Kind) String() string {
	switch k {
	case Embed:
		return "embed"
	case Classify:
		return "classify"
	case Segment:
		return "segment"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Admission and execution errors.
var (
	// ErrShed is returned when the bounded admission queue is full: the
	// server refuses the request instead of letting latency grow
	// without bound.
	ErrShed = errors.New("serve: admission queue full, request shed")
	// ErrClosed is returned by Submit after Drain started.
	ErrClosed = errors.New("serve: server closed")
	// ErrNoHead rejects Classify/Segment requests when the model was
	// loaded without the corresponding fitted head.
	ErrNoHead = errors.New("serve: no fitted head for this request kind")
	// ErrBadRequest rejects malformed requests (unknown kind, wrong
	// image length).
	ErrBadRequest = errors.New("serve: malformed request")
)

// Config is the dynamic batcher's policy knobs.
type Config struct {
	// MaxBatch closes a batch as soon as this many requests wait.
	MaxBatch int
	// MaxWaitSec closes the waiting batch when its oldest request has
	// waited this long, whatever its size. Zero means every request
	// closes its own batch immediately (no batching delay).
	MaxWaitSec float64
	// QueueCap bounds requests admitted but not yet computing (waiting
	// + closed-but-undispatched). Admissions beyond it shed.
	QueueCap int
	// Workers is the number of concurrent inference engines sharing
	// the read-only weights.
	Workers int
}

// DefaultConfig returns a modest single-engine batcher.
func DefaultConfig() Config {
	return Config{MaxBatch: 8, MaxWaitSec: 2e-3, QueueCap: 64, Workers: 1}
}

// Validate reports unusable configurations.
func (c Config) Validate() error {
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: MaxBatch %d < 1", c.MaxBatch)
	}
	if !finite(c.MaxWaitSec) || c.MaxWaitSec < 0 {
		return fmt.Errorf("serve: MaxWaitSec %v is not a finite non-negative time", c.MaxWaitSec)
	}
	if c.QueueCap < c.MaxBatch {
		return fmt.Errorf("serve: QueueCap %d < MaxBatch %d", c.QueueCap, c.MaxBatch)
	}
	if c.Workers < 1 {
		return fmt.Errorf("serve: Workers %d < 1", c.Workers)
	}
	return nil
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
