package serve

import (
	"slices"
	"sync"
	"time"

	"repro/internal/nn"
)

// Server is the wall-clock form of the batcher: the same policy state
// machine as the virtual driver, stepped under one mutex with the host
// clock. Submit admits requests from any goroutine, a time.AfterFunc
// timer closes the waiting batch at its deadline, and a fixed pool of
// engine goroutines executes launched batches on the shared read-only
// weights (one nn.InferCtx per engine). Timestamps are measurements —
// the validation suite holds them to the simulator's predictions.
type Server struct {
	model *Model
	start time.Time

	// mu guards every field below it; the batcher's steps run under it.
	mu     sync.Mutex
	b      batcher
	closed bool
	// armed is the waiting request the latest deadline timer is for; a
	// timer whose request is no longer the oldest waiting does nothing.
	armed *pending
	idle  []bool
	// jobs hands a launched batch to an idle engine. Its one slot is
	// always empty when the engine is idle, so the send under mu never
	// blocks.
	jobs []chan *batchJob
	// done holds each undelivered response's 1-buffered channel, by ID;
	// the one send never blocks, and the entry is dropped after it.
	done []chan *Response

	wg sync.WaitGroup
}

// Stats summarizes a drained server: request counts and the completed
// batch log in close order.
type Stats struct {
	Served  int
	Shed    int
	Batches []BatchRec
}

// NewServer validates the configuration and starts cfg.Workers engine
// goroutines over the shared model.
func NewServer(cfg Config, model *Model) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		model: model,
		start: time.Now(),
		b:     batcher{cfg: cfg, admissible: model.admissible},
		idle:  make([]bool, cfg.Workers),
		jobs:  make([]chan *batchJob, cfg.Workers),
	}
	s.b.onDone = func(resp *Response, _ float64) {
		s.done[resp.ID] <- resp
		s.done[resp.ID] = nil
	}
	for e := range s.jobs {
		s.idle[e] = true
		s.jobs[e] = make(chan *batchJob, 1)
		s.wg.Add(1)
		go s.engine(e)
	}
	return s, nil
}

// now returns seconds since the server started — the wall-clock
// counterpart of the virtual driver's event time.
func (s *Server) now() float64 { return time.Since(s.start).Seconds() }

// Submit admits one request and returns a 1-buffered channel that will
// carry the response. Rejected and shed requests complete immediately
// (the response carries the error); the channel always delivers exactly
// one response.
func (s *Server) Submit(kind Kind, img []float32) (<-chan *Response, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	now := s.now()
	done := make(chan *Response, 1)
	s.done = append(s.done, done)
	s.b.admit(Arrival{AtSec: now, Kind: kind, Img: img})
	if o, dl := s.b.deadline(); o != nil && o != s.armed {
		s.armed = o
		if wait := dl - now; wait > 0 {
			time.AfterFunc(time.Duration(wait*float64(time.Second)), func() { s.expire(o) })
		} else {
			s.b.closeBatch(now, "deadline")
		}
	}
	s.launchIdle(now)
	return done, nil
}

// expire is o's deadline timer: it closes the waiting batch if o is
// still its oldest member.
func (s *Server) expire(o *pending) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if oldest, _ := s.b.deadline(); oldest == o {
		now := s.now()
		s.b.closeBatch(now, "deadline")
		s.launchIdle(now)
	}
}

// launchIdle launches queued batches onto idle engines, lowest index
// first. Caller holds s.mu.
func (s *Server) launchIdle(now float64) {
	for e := 0; e < len(s.idle) && len(s.b.dispatch) > 0; e++ {
		if s.idle[e] {
			s.idle[e] = false
			s.jobs[e] <- s.b.launch(now, e)
		}
	}
}

// engine is one inference engine: it runs each batch handed to it,
// then, under the lock, finishes it and launches the next queued batch
// on itself — or goes idle when none waits.
func (s *Server) engine(e int) {
	defer s.wg.Done()
	ctx := nn.NewInferCtx()
	// An engine that served one oversized batch would otherwise pin that
	// batch's scratch footprint until process exit.
	defer ctx.Release()
	for job := range s.jobs[e] {
		for job != nil {
			s.model.Fill(ctx, job.reqs, job.resps)
			s.mu.Lock()
			now := s.now()
			s.b.finish(job, now)
			job = nil
			if len(s.b.dispatch) > 0 {
				job = s.b.launch(now, e)
			} else {
				s.idle[e] = true
			}
			s.mu.Unlock()
		}
	}
}

// Drain closes admission, flushes any still-waiting requests as a
// final batch, waits for every engine to finish, and returns the run's
// statistics. After Drain, Submit returns ErrClosed.
func (s *Server) Drain() Stats {
	s.mu.Lock()
	s.closed = true
	if len(s.b.waiting) > 0 {
		now := s.now()
		s.b.closeBatch(now, "drain")
		s.launchIdle(now)
	}
	s.mu.Unlock()
	for _, ch := range s.jobs {
		close(ch)
	}
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{Shed: s.b.shed, Batches: slices.Clone(s.b.batches)}
	for _, r := range st.Batches {
		st.Served += len(r.IDs)
	}
	return st
}

// RunWall replays an open-loop schedule against a fresh wall-clock
// server, sleeping each request into its slot, and returns the
// server's own record of the run once it has drained.
func RunWall(cfg Config, model *Model, arrivals []Arrival) (*RunResult, error) {
	s, err := NewServer(cfg, model)
	if err != nil {
		return nil, err
	}
	chans := make([]<-chan *Response, len(arrivals))
	for i, a := range arrivals {
		if d := a.AtSec - s.now(); d > 0 {
			time.Sleep(time.Duration(d * float64(time.Second)))
		}
		if chans[i], err = s.Submit(a.Kind, a.Img); err != nil {
			return nil, err
		}
	}
	for _, ch := range chans {
		<-ch
	}
	s.Drain()
	return s.b.result(LatencyModel{}), nil
}
