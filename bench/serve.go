package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/geodata"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/train"
)

// mixedKinds is the served traffic mix, assigned round-robin.
var mixedKinds = []serve.Kind{serve.Embed, serve.Classify, serve.Segment}

// served is a model brought up the way production serving does it:
// trained, checkpointed to disk, loaded back, headed and warmed.
type served struct {
	model  *serve.Model
	images [][]float32
	// restored reports whether the checkpoint round trip brought
	// Master back bitwise.
	restored bool
}

// serveSetup runs the real flow: a short 1-rank PretrainDistributed →
// SaveTrainStateFile → LoadTrainStateFile → serve.NewModelFromState →
// synthetic probe heads → warm-up requests through a live server.
func (w workload) serveSetup(seed uint64) (*served, error) {
	out, err := w.pretrain(seed, w.warmSteps, 1)
	if err != nil {
		return nil, fmt.Errorf("pretrain: %w", err)
	}
	st, _, err := checkpointRoundTrip(w.name, out.dist.State)
	if err != nil {
		return nil, err
	}
	s := &served{restored: sameBits32(st.Master, out.dist.State.Master)}

	s.model, err = serve.NewModelFromState(w.mae, st)
	if err != nil {
		return nil, err
	}
	width := w.mae.Encoder.Width
	s.model.AttachHeads(synthHead(width, 8, seed+101), synthHead(width, geodata.SegClasses, seed+102))

	// A fixed pool of rendered scenes: serving cost does not depend on
	// pixel content, and rendering per request would bill the load
	// generator's work to the server.
	gen := w.dataset(seed, 1).Gen
	s.images = make([][]float32, 64)
	for i := range s.images {
		s.images[i] = make([]float32, gen.ImageLen())
		gen.Image(i%gen.Classes, i, s.images[i])
	}
	warm, err := closedLoop(s, w.serve.cfg, w.serve.clients, w.serve.warmRequests/w.serve.clients+1, 0)
	if err != nil {
		return nil, err
	}
	if warm.failed() > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d requests failed", warm.failed(), warm.sent)
	}
	return s, nil
}

// ckptTiming is what one checkpoint round trip cost.
type ckptTiming struct {
	saveSec, loadSec float64
	bytes            int64
}

// checkpointRoundTrip saves st under bench/out, loads it back and
// removes the file.
func checkpointRoundTrip(name string, st *train.TrainState) (*train.TrainState, ckptTiming, error) {
	var t ckptTiming
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, t, err
	}
	path := filepath.Join(outDir, name+".ckpt")
	defer os.Remove(path)
	t0 := time.Now()
	if err := train.SaveTrainStateFile(path, st); err != nil {
		return nil, t, err
	}
	t.saveSec = time.Since(t0).Seconds()
	fi, err := os.Stat(path)
	if err != nil {
		return nil, t, err
	}
	t.bytes = fi.Size()
	t0 = time.Now()
	back, err := train.LoadTrainStateFile(path)
	if err != nil {
		return nil, t, err
	}
	t.loadSec = time.Since(t0).Seconds()
	return back, t, nil
}

// synthHead is a fixed random linear probe: head arithmetic costs the
// same whatever the weights, and fitting real heads would bill probe
// training to serving set-up.
func synthHead(dim, classes int, seed uint64) *probe.Head {
	r := rng.New(seed)
	h := &probe.Head{
		Dim: dim, Classes: classes,
		W: make([]float32, dim*classes), B: make([]float32, classes),
		Mean: make([]float64, dim), InvStd: make([]float64, dim),
	}
	for i := range h.W {
		h.W[i] = float32(r.NormFloat64()) * 0.1
	}
	for i := range h.InvStd {
		h.InvStd[i] = 1
	}
	return h
}

// reply is one request as the load generator saw it: when it was due
// (open loop; equal to its admission in closed loop), which image it
// carried, and the server's response.
type reply struct {
	dueSec float64
	image  int
	resp   *serve.Response
}

// latencySec is the user's latency: from the moment the request was
// due to be sent, so a stall's cost to the requests queued behind it
// in the generator counts.
func (r reply) latencySec() float64 { return r.resp.Trace.DoneSec - r.dueSec }

// phase is one load phase against one server instance.
type phase struct {
	name    string
	sent    int
	replies []reply
	stats   serve.Stats
	wallSec float64
	// start is the server's time zero: request traces count from it.
	start time.Time
}

func (p *phase) rejected() int {
	n := 0
	for _, r := range p.replies {
		if r.resp.Err != nil && !errors.Is(r.resp.Err, serve.ErrShed) {
			n++
		}
	}
	return n
}

func (p *phase) failed() int { return p.stats.Shed + p.rejected() + (p.sent - len(p.replies)) }

// ok returns the replies that were served.
func (p *phase) ok() []reply {
	var out []reply
	for _, r := range p.replies {
		if r.resp.Err == nil {
			out = append(out, r)
		}
	}
	return out
}

// merge folds another run of the same phase into p.
func (p *phase) merge(q *phase) {
	p.sent += q.sent
	p.replies = append(p.replies, q.replies...)
	p.stats.Served += q.stats.Served
	p.stats.Shed += q.stats.Shed
	p.stats.Batches = append(p.stats.Batches, q.stats.Batches...)
	p.wallSec += q.wallSec
}

// accounted reports whether every sent request got exactly one
// response and sent = served + shed + rejected.
func (p *phase) accounted() bool {
	return len(p.replies) == p.sent && p.stats.Served+p.stats.Shed+p.rejected() == p.sent
}

// closedLoop runs clients concurrent callers with no think time, each
// sending its next request when the previous reply lands: perClient
// requests each, or — when perClient is 0 — until seconds have passed.
func closedLoop(s *served, cfg serve.Config, clients, perClient int, seconds float64) (*phase, error) {
	start := time.Now()
	p := &phase{name: "closed", start: start}
	srv, err := serve.NewServer(cfg, s.model)
	if err != nil {
		return nil, err
	}
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	per := make([][]reply, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; (perClient > 0 && i < perClient) || (perClient == 0 && time.Now().Before(deadline)); i++ {
				n := c + i*clients
				ch, err := srv.Submit(mixedKinds[n%len(mixedKinds)], s.images[n%len(s.images)])
				if err != nil {
					return // the server only refuses after Drain; counted as missing
				}
				resp := <-ch
				per[c] = append(per[c], reply{dueSec: resp.Trace.ArrivalSec, image: n % len(s.images), resp: resp})
			}
		}(c)
	}
	wg.Wait()
	p.wallSec = time.Since(start).Seconds()
	p.stats = srv.Drain()
	for _, rs := range per {
		p.replies = append(p.replies, rs...)
	}
	p.sent = len(p.replies)
	return p, nil
}

// openLoop sends a Poisson schedule at rate requests/s for seconds
// from one generator goroutine, whatever the server does: independent
// users do not wait for each other's replies.
func openLoop(s *served, cfg serve.Config, name string, rate, seconds float64, seed uint64) (*phase, error) {
	n := int(rate * seconds)
	image := func(i int) []float32 { return s.images[i%len(s.images)] }
	schedule := serve.PoissonArrivals(rate, n, mixedKinds, image, seed)
	start := time.Now()
	p := &phase{name: name, sent: n, start: start}
	srv, err := serve.NewServer(cfg, s.model)
	if err != nil {
		return nil, err
	}
	chans := make([]<-chan *serve.Response, 0, n)
	for _, a := range schedule {
		if d := a.AtSec - time.Since(start).Seconds(); d > 0 {
			time.Sleep(time.Duration(d * float64(time.Second)))
		}
		ch, err := srv.Submit(a.Kind, a.Img)
		if err != nil {
			break
		}
		chans = append(chans, ch)
	}
	for i, ch := range chans {
		p.replies = append(p.replies, reply{dueSec: schedule[i].AtSec, image: i % len(s.images), resp: <-ch})
	}
	p.wallSec = time.Since(start).Seconds()
	p.stats = srv.Drain()
	return p, nil
}

// windowMedians is the median latency within each of k equal windows
// of the phase (by due time): the samples the phase's latency is the
// fast quartile of.
func windowMedians(rs []reply, spanSec float64, k int) []float64 {
	windows := make([][]reply, k)
	for _, r := range rs {
		i := min(k-1, int(float64(k)*r.dueSec/spanSec))
		windows[i] = append(windows[i], r)
	}
	var out []float64
	for _, rs := range windows {
		if len(rs) > 0 {
			out = append(out, serve.Percentile(latenciesMs(rs), 0.5))
		}
	}
	return out
}

func latenciesMs(rs []reply) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = 1e3 * r.latencySec()
	}
	return out
}

// serveEndToEnd sets up setupReps times, then measures capacity with
// closed loops (a quarter of the time) and latency with an open loop
// at rateLo (the rest).
func serveEndToEnd(w workload, seed uint64, seconds float64, rec *runRecord) error {
	var (
		s      *served
		setups []float64
	)
	for i := 0; i < setupReps; i++ {
		runtime.GC()
		t0 := time.Now()
		var err error
		if s, err = w.serveSetup(seed); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rec.set("setup_s", "s", median(setups), setups)

	// Capacity: closedReps closed loops over a quarter of the time, each
	// against a fresh server.
	const closedReps = 6
	closedSec := seconds / 4
	var (
		rps    []float64
		closed = &phase{name: "closed"}
	)
	for i := 0; i < closedReps; i++ {
		p, err := closedLoop(s, w.serve.cfg, w.serve.clients, 0, closedSec/closedReps)
		if err != nil {
			return err
		}
		rps = append(rps, float64(len(p.ok()))/p.wallSec)
		closed.merge(p)
	}
	rec.set("items_per_s", "1/s", fastQuartile(rps, true), rps)

	// Latency: one open loop at rateLo over the rest of the time, judged
	// in windows of about a second and a half.
	openSec := seconds - closedSec
	lo, err := openLoop(s, w.serve.cfg, "lo", w.serve.rateLo, openSec, seed*7919+1)
	if err != nil {
		return err
	}
	p50s := windowMedians(lo.ok(), openSec, max(4, int(openSec/1.5)))
	rec.set("latency_ms_p50", "ms", fastQuartile(p50s, false), p50s)

	rec.Attempted = closed.sent + lo.sent
	rec.Failed = closed.failed() + lo.failed()
	rec.serveChecks(s, closed, lo)
	return nil
}

// serveChecks asserts the checkpoint round trip, the request
// accounting of every phase, and that served embeddings are the
// training-path features of the same image.
func (rec *runRecord) serveChecks(s *served, phases ...*phase) {
	rec.check("ckpt_master_bitwise", s.restored, "LoadTrainStateFile did not restore Master bitwise")
	for _, p := range phases {
		rec.check("requests_accounted_"+p.name, p.accounted(),
			fmt.Sprintf("sent %d, replies %d, served %d, shed %d, rejected %d",
				p.sent, len(p.replies), p.stats.Served, p.stats.Shed, p.rejected()))
	}
	checked, worst := 0, 0.0
	for _, r := range phases[0].ok() {
		if r.resp.Kind != serve.Embed {
			continue
		}
		want := s.model.MAE.Features(s.images[r.image], 1)
		for j, v := range r.resp.Embedding {
			d := math.Abs(float64(v-want[j])) / math.Max(1, math.Abs(float64(want[j])))
			worst = math.Max(worst, d)
		}
		if checked++; checked == 32 {
			break
		}
	}
	rec.check("embed_matches_features", checked > 0 && worst <= 1e-4,
		fmt.Sprintf("%d sampled Embed replies, worst deviation from mae.Features %.3g", checked, worst))
}

func sameBits32(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
