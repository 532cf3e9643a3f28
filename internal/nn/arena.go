package nn

// Arena is the activation memory of one pass through the layers. Every
// layer's Apply takes its output and its working buffers from the
// caller's Arena; no layer holds activation memory of its own.
//
// An arena has two stacks of slots. The kept stack holds what a later
// phase reads: Take hands out a slot that stays valid until Reset. The
// scratch stack holds everything else: Scratch hands out a slot that
// stays valid until the caller rewinds below it (Mark, Rewind), so a
// block's working set, a model's gathered and assembled inputs and a
// backward's transients all reuse one region.
//
// An arena is made recording (NewTrainCtx) or frozen (NewInferCtx). On a
// recording arena Apply keeps exactly what its backward re-reads —
// LayerNorm's x̂ and 1/σ, attention's fused QKV output, merged heads and
// softmax statistics, the MLP's pre-activation — and records, in the
// layer's fields, which slices those are, so a recording arena belongs
// to one model replica. Everything else a forward makes (LayerNorm
// outputs, projection, GELU and FC2 outputs, residual sums) is scratch,
// and backward regenerates the two of them it needs with the forward's
// own kernels. A frozen arena takes those caches from scratch too and
// the layers write no state: a block keeps nothing (its output is the
// residual stream it updates in place), and any number of workers may
// run one read-only model at once, one frozen arena each. The
// arithmetic is the same either way, so a frozen pass is bitwise the
// recording pass.
//
// Slots are handed out in call order and keep their memory across
// Reset, so a pass that repeats its shape sequence (a training step, a
// serving batch) allocates nothing after its first run. An Arena is not
// safe for concurrent use.
type Arena struct {
	kept, scratch slots
	recording     bool
}

// slots is one stack of reusable buffers: bufs[i] is the i-th slot at
// the largest size it has been taken at, next the stack's top.
type slots struct {
	bufs [][]float32
	next int
}

func (s *slots) take(n int) []float32 {
	if s.next == len(s.bufs) {
		s.bufs = append(s.bufs, nil)
	}
	b := s.bufs[s.next]
	if cap(b) < n {
		b = make([]float32, n)
	}
	b = b[:n]
	s.bufs[s.next] = b
	s.next++
	return b
}

func (s *slots) floats() int {
	n := 0
	for _, b := range s.bufs {
		n += cap(b)
	}
	return n
}

// NewTrainCtx returns an empty recording arena: passes on it keep what
// their backward needs.
func NewTrainCtx() *Arena { return &Arena{recording: true} }

// NewInferCtx returns an empty frozen arena: passes on it keep nothing
// for a backward and write no layer state.
func NewInferCtx() *Arena { return &Arena{} }

// Reset recycles every slot of both stacks handed out since the last
// Reset. Slices taken before are invalid after it.
func (a *Arena) Reset() { a.kept.next, a.scratch.next = 0, 0 }

// Release frees the arena's memory entirely, so a worker that served
// one oversized batch stops pinning that batch's footprint. The next
// take re-grows from nothing.
func (a *Arena) Release() { a.kept, a.scratch = slots{}, slots{} }

// Take returns a length-n kept slot, valid until the arena is reset.
// Contents are unspecified: every kernel overwrites what it takes, and
// a caller needing zeroed memory clears it.
func (a *Arena) Take(n int) []float32 { return a.kept.take(n) }

// Scratch returns a length-n scratch slot, valid until the arena is
// reset or rewound below it. Contents are unspecified, as with Take.
func (a *Arena) Scratch(n int) []float32 { return a.scratch.take(n) }

// keep returns a slot for what a backward re-reads: kept on a recording
// arena, scratch on a frozen one, where no backward follows.
func (a *Arena) keep(n int) []float32 {
	if a.recording {
		return a.Take(n)
	}
	return a.Scratch(n)
}

// Mark returns the scratch stack's top, for a later Rewind.
func (a *Arena) Mark() int { return a.scratch.next }

// Rewind hands the scratch slots taken since mark back, so the next
// Scratch reuses them.
func (a *Arena) Rewind(mark int) { a.scratch.next = mark }

// Bytes returns the memory the arena holds: every slot of both stacks
// at the largest size it has been taken at. After a training step on a
// fresh recording arena it is the step's activation footprint.
func (a *Arena) Bytes() int { return 4 * (a.kept.floats() + a.scratch.floats()) }
