package serve

import (
	"fmt"
	"math"

	"repro/internal/trace"
)

// Arrival is one scheduled request: an arrival time on the driver's
// clock plus the payload. Open-loop load generation pre-builds the
// whole schedule; closed-loop generation pushes each client's next
// arrival when its previous response completes.
type Arrival struct {
	AtSec  float64
	Kind   Kind
	Img    []float32
	Client int
}

// BatchRec records one closed batch: its members (request IDs in
// admission order), why it closed ("size" when MaxBatch filled,
// "deadline" when the oldest member aged past MaxWait, "drain" when the
// wall-clock server shut down), the engine it ran on, and its close /
// compute-start / done times — modeled on a virtual clock, measured on
// the wall clock.
type BatchRec struct {
	Seq    int
	Engine int
	IDs    []uint64
	Kinds  []Kind
	Reason string
	// CloseSec is the batch-form event; StartSec/DoneSec bracket the
	// engine execution. StartSec − CloseSec is the dispatch wait.
	CloseSec, StartSec, DoneSec float64
}

// RunResult is one complete serving run: per-request responses
// (indexed by request ID, which is admission order), the batch log,
// and the makespan.
type RunResult struct {
	Cfg Config
	// Lat is the curve the run was priced with (zero for wall runs).
	Lat       LatencyModel
	Responses []*Response
	Batches   []BatchRec
	// MakespanSec is the completion time of the last response.
	MakespanSec float64
	// Shed counts admissions refused on a full queue.
	Shed int
}

// pending is one admitted request waiting for a batch.
type pending struct {
	req  *Request
	resp *Response
}

// batchJob is one closed batch on its way to (or running on) an engine:
// its batch-log index and its members in admission order.
type batchJob struct {
	rec   int
	reqs  []*Request
	resps []*Response
}

// batcher is the serving policy — the one state machine every form of
// the server drives. It knows nothing of clocks or engines: each step
// takes the driver's current time, and the driver decides when steps
// happen (the virtual event loop below, or Server under its mutex with
// the host clock). The steps are admit, closeBatch, launch and finish.
type batcher struct {
	cfg Config
	// admissible validates a request at admission (nil accepts
	// everything).
	admissible func(kind Kind, img []float32) error
	// onDone fires once per completed response — served, shed or
	// rejected.
	onDone func(resp *Response, doneSec float64)

	waiting     []*pending
	dispatch    []*batchJob // closed, not yet launched, FIFO
	outstanding int         // admitted, not yet launched

	responses []*Response
	batches   []BatchRec
	makespan  float64
	shed      int
}

// admit takes one arrival at a.AtSec: it validates, sheds when the
// queue is full, or enqueues — closing the batch once MaxBatch wait.
func (b *batcher) admit(a Arrival) {
	id := uint64(len(b.responses))
	resp := &Response{ID: id, Kind: a.Kind, Client: a.Client}
	resp.Trace = trace.RequestTrace{ID: id, ArrivalSec: a.AtSec}
	b.responses = append(b.responses, resp)

	if b.admissible != nil {
		if err := b.admissible(a.Kind, a.Img); err != nil {
			b.complete(resp, err, a.AtSec)
			return
		}
	}
	if b.outstanding >= b.cfg.QueueCap {
		b.shed++
		b.complete(resp, ErrShed, a.AtSec)
		return
	}
	b.outstanding++
	b.waiting = append(b.waiting, &pending{
		req:  &Request{ID: id, Kind: a.Kind, Img: a.Img, Client: a.Client},
		resp: resp,
	})
	if len(b.waiting) >= b.cfg.MaxBatch {
		b.closeBatch(a.AtSec, "size")
	}
}

// complete finishes a request that never rides a batch (shed or
// rejected): every trace point collapses onto the arrival instant.
func (b *batcher) complete(resp *Response, err error, at float64) {
	resp.Err = err
	resp.Trace.BatchFormSec = at
	resp.Trace.ComputeStartSec = at
	resp.Trace.DoneSec = at
	b.done(resp, at)
}

// done records one response's completion at the given instant.
func (b *batcher) done(resp *Response, at float64) {
	if at > b.makespan {
		b.makespan = at
	}
	if b.onDone != nil {
		b.onDone(resp, at)
	}
}

// deadline returns the oldest waiting request and the instant its
// MaxWait expires (nil and +Inf when nothing waits).
func (b *batcher) deadline() (*pending, float64) {
	if len(b.waiting) == 0 {
		return nil, math.Inf(1)
	}
	return b.waiting[0], b.waiting[0].resp.Trace.ArrivalSec + b.cfg.MaxWaitSec
}

// closeBatch forms a batch from every waiting request (never more than
// MaxBatch: admit closes as soon as that many wait), appends it to the
// batch log and queues it for dispatch.
func (b *batcher) closeBatch(now float64, reason string) {
	k := len(b.waiting)
	job := &batchJob{rec: len(b.batches), reqs: make([]*Request, k), resps: make([]*Response, k)}
	ids := make([]uint64, k)
	kinds := make([]Kind, k)
	for i, m := range b.waiting {
		job.reqs[i], job.resps[i] = m.req, m.resp
		ids[i] = m.req.ID
		kinds[i] = m.req.Kind
		m.resp.Trace.BatchFormSec = now
	}
	b.waiting = b.waiting[:0]
	b.batches = append(b.batches, BatchRec{
		Seq: job.rec, Engine: -1,
		IDs: ids, Kinds: kinds, Reason: reason,
		CloseSec: now,
	})
	b.dispatch = append(b.dispatch, job)
}

// launch starts the FIFO-next closed batch on engine at now. The caller
// has checked that a batch is queued and the engine is free.
func (b *batcher) launch(now float64, engine int) *batchJob {
	job := b.dispatch[0]
	copy(b.dispatch, b.dispatch[1:])
	b.dispatch = b.dispatch[:len(b.dispatch)-1]

	rec := &b.batches[job.rec]
	rec.Engine = engine
	rec.StartSec = now
	b.outstanding -= len(job.resps)
	for _, r := range job.resps {
		r.Trace.ComputeStartSec = now
		r.BatchSeq = rec.Seq
		r.BatchSize = len(job.resps)
	}
	return job
}

// finish completes a launched batch at doneSec.
func (b *batcher) finish(job *batchJob, doneSec float64) {
	b.batches[job.rec].DoneSec = doneSec
	for _, r := range job.resps {
		r.Trace.DoneSec = doneSec
	}
	for _, r := range job.resps {
		b.done(r, doneSec)
	}
}

// result packages the run so far.
func (b *batcher) result(lat LatencyModel) *RunResult {
	return &RunResult{
		Cfg: b.cfg, Lat: lat,
		Responses:   b.responses,
		Batches:     b.batches,
		MakespanSec: b.makespan,
		Shed:        b.shed,
	}
}

// arrivalEntry orders the future-arrival heap by (time, push order) so
// simultaneous arrivals admit in a deterministic order.
type arrivalEntry struct {
	at  float64
	seq int
	a   Arrival
}

// policyRun drives the batcher on a virtual clock: a discrete-event
// loop whose only event types are "an arrival admits", "the oldest
// waiting request hits the deadline" (closing the batch), and "an
// engine frees" (launching the FIFO-next closed batch). Ties at equal
// timestamps resolve in that priority order reversed — engine launch
// first, then deadline close, then arrival — so an arrival landing
// exactly on a deadline instant misses the closing batch. A launched
// batch is priced by the latency model and finished at once, its
// compute (exec ≠ nil: the virtual executor) run on the spot; with
// exec = nil this is the serving simulator.
type policyRun struct {
	batcher
	lat  LatencyModel
	exec func(job *batchJob)

	heap       []arrivalEntry
	heapSeq    int
	now        float64
	engineFree []float64
}

// push schedules a future arrival (heap ordered by time, then push
// order).
func (p *policyRun) push(a Arrival) {
	e := arrivalEntry{at: a.AtSec, seq: p.heapSeq, a: a}
	p.heapSeq++
	p.heap = append(p.heap, e)
	i := len(p.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !heapLess(p.heap[i], p.heap[parent]) {
			break
		}
		p.heap[i], p.heap[parent] = p.heap[parent], p.heap[i]
		i = parent
	}
}

func heapLess(a, b arrivalEntry) bool {
	//statgate:allow floateq — deterministic heap order over stored virtual timestamps; ties must compare exactly
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (p *policyRun) popArrival() Arrival {
	top := p.heap[0]
	last := len(p.heap) - 1
	p.heap[0] = p.heap[last]
	p.heap = p.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(p.heap) && heapLess(p.heap[l], p.heap[small]) {
			small = l
		}
		if r < len(p.heap) && heapLess(p.heap[r], p.heap[small]) {
			small = r
		}
		if small == i {
			break
		}
		p.heap[i], p.heap[small] = p.heap[small], p.heap[i]
		i = small
	}
	return top.a
}

// runPolicy validates the curves and the arrival times, drives the
// state machine to completion on a virtual clock and packages the
// result. arrivals seed the event heap; onDone may push follow-up
// arrivals — the closed-loop hook.
func runPolicy(cfg Config, lat LatencyModel,
	admissible func(Kind, []float32) error,
	exec func(*batchJob),
	onDone func(resp *Response, doneSec float64, push func(Arrival)),
	arrivals []Arrival) (*RunResult, error) {

	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := lat.Validate(); err != nil {
		return nil, err
	}
	for i, a := range arrivals {
		if !onClock(a.AtSec) {
			return nil, fmt.Errorf("serve: arrival %d at %v s, want a finite non-negative time", i, a.AtSec)
		}
	}
	p := &policyRun{
		batcher:    batcher{cfg: cfg, admissible: admissible},
		lat:        lat,
		exec:       exec,
		engineFree: make([]float64, cfg.Workers),
	}
	if onDone != nil {
		p.onDone = func(resp *Response, doneSec float64) { onDone(resp, doneSec, p.push) }
	}
	for _, a := range arrivals {
		p.push(a)
	}
	p.run()
	return p.result(lat), nil
}

// onClock reports whether a time can stand on the virtual clock the
// event loop orders by: a NaN never compares, an infinite time never
// arrives, and a negative one precedes the clock's start.
func onClock(sec float64) bool { return sec >= 0 && !math.IsInf(sec, 1) }

func (p *policyRun) run() {
	inf := math.Inf(1)
	for {
		p.startReady()

		tArr := inf
		if len(p.heap) > 0 {
			tArr = p.heap[0].at
		}
		_, tDl := p.deadline()
		tEng := inf
		if len(p.dispatch) > 0 {
			for _, f := range p.engineFree {
				if f < tEng {
					tEng = f
				}
			}
		}
		if math.IsInf(tArr, 1) && math.IsInf(tDl, 1) && math.IsInf(tEng, 1) {
			break
		}
		switch {
		case tEng <= tDl && tEng <= tArr:
			p.now = tEng // loop top launches the freed engine's batch
		case tDl <= tArr:
			p.now = tDl
			p.closeBatch(p.now, "deadline")
		default:
			p.now = tArr
			p.admit(p.popArrival())
		}
	}
	if len(p.waiting) > 0 || len(p.dispatch) > 0 || p.outstanding != 0 {
		panic(fmt.Sprintf("serve: policy loop ended with %d waiting, %d dispatched, %d outstanding",
			len(p.waiting), len(p.dispatch), p.outstanding))
	}
}

// startReady launches closed batches FIFO onto engines that are free
// at the current instant (earliest-free engine, ties to the lowest
// index), each finishing one modeled batch time later.
func (p *policyRun) startReady() {
	for len(p.dispatch) > 0 {
		e := -1
		best := math.Inf(1)
		for i, f := range p.engineFree {
			if f < best {
				best = f
				e = i
			}
		}
		if best > p.now {
			return
		}
		job := p.launch(p.now, e)
		done := p.now + p.lat.BatchSec(p.batches[job.rec].Kinds)
		p.engineFree[e] = done
		if p.exec != nil {
			p.exec(job)
		}
		p.finish(job, done)
	}
}

// RunVirtual executes a full serving run on a virtual clock: the
// batcher policy admits/closes/launches on modeled time (lat), while
// every launched batch runs its *real* compute on the shared weights —
// so responses are bitwise reproducible and timings are exactly
// repeatable, independent of host load. This is the deterministic half
// of the serving test suite and the engine behind cmd/serve's virtual
// mode.
func RunVirtual(cfg Config, lat LatencyModel, model *Model, arrivals []Arrival) (*RunResult, error) {
	return runPolicy(cfg, lat, model.admissible, newModelExec(model), nil, arrivals)
}

// Simulate is the serving simulator: the policy on a virtual clock
// with no compute at all, every batch priced by lat. Virtual runs of
// the same stream match it bitwise.
//
// Simulate assumes well-formed requests (no admission validation —
// there is no model here to validate against), though arrival times are
// still checked; queue sheds are still modeled exactly.
func Simulate(cfg Config, lat LatencyModel, arrivals []Arrival) (*RunResult, error) {
	return runPolicy(cfg, lat, nil, nil, nil, arrivals)
}
