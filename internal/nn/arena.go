package nn

// Arena is the activation memory of one pass through the layers. Every
// layer's Apply takes its outputs from the caller's Arena, and a
// backward takes its transients from the arena's top under Mark/Rewind;
// no layer holds activation memory of its own.
//
// An arena is made recording (NewTrainCtx) or frozen (NewInferCtx). On a
// recording arena Apply also takes the caches its backward re-reads
// (LayerNorm's x̂ and 1/σ, attention's softmax statistics) and records,
// in the layer's fields, which slices those are — so a recording arena
// belongs to one model replica, and a training step's forward, backward
// and transients all live in it. A frozen arena gets the outputs only
// and the layers write no state: any number of workers may run one
// read-only model at once, one frozen arena each. The arithmetic is the
// same either way, so a frozen pass is bitwise the recording pass.
//
// Slots are handed out in call order and keep their memory across
// Reset, so a pass that repeats its shape sequence (a training step, a
// serving batch) allocates nothing after its first run. An Arena is not
// safe for concurrent use.
type Arena struct {
	bufs      [][]float32
	next      int
	recording bool
}

// NewTrainCtx returns an empty recording arena: passes on it keep what
// their backward needs.
func NewTrainCtx() *Arena { return &Arena{recording: true} }

// NewInferCtx returns an empty frozen arena: passes on it keep nothing
// for a backward and write no layer state.
func NewInferCtx() *Arena { return &Arena{} }

// Reset recycles every slot handed out since the last Reset. Slices
// taken before are invalid after it.
func (a *Arena) Reset() { a.next = 0 }

// Release frees the arena's memory entirely, so a worker that served
// one oversized batch stops pinning that batch's footprint. The next
// Take re-grows from nothing.
func (a *Arena) Release() {
	a.bufs = nil
	a.next = 0
}

// Take returns a length-n slot, valid until the arena is reset or
// rewound below it. Contents are unspecified: every kernel overwrites
// what it takes, and a caller needing zeroed memory clears it.
func (a *Arena) Take(n int) []float32 {
	if a.next == len(a.bufs) {
		a.bufs = append(a.bufs, nil)
	}
	b := a.bufs[a.next]
	if cap(b) < n {
		b = make([]float32, n)
	}
	b = b[:n]
	a.bufs[a.next] = b
	a.next++
	return b
}

// Mark returns the arena's top, for a later Rewind.
func (a *Arena) Mark() int { return a.next }

// Rewind hands the slots taken since mark back, so the next Take reuses
// them: how a backward's transients share one region of the arena.
func (a *Arena) Rewind(mark int) { a.next = mark }

// Bytes returns the memory the arena holds: every slot at the largest
// size it has been taken at. After a training step on a fresh recording
// arena it is the step's activation footprint.
func (a *Arena) Bytes() int {
	n := 0
	for _, b := range a.bufs {
		n += cap(b)
	}
	return 4 * n
}
