package serve

import (
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/probe"
	"repro/internal/rng"
	"repro/internal/vit"
)

// tinyMAECfg is the test-scale architecture every serving test runs:
// the same tiny encoder the mae/vit suites pin.
func tinyMAECfg() mae.Config {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32,
		Heads: 2, PatchSize: 4, ImageSize: 12, Channels: 2}
	return mae.Config{Encoder: enc, DecoderWidth: 8, DecoderDepth: 1,
		DecoderHeads: 2, MaskRatio: 0.5}
}

// synthHead builds a deterministic probe head directly (identity
// standardization, small random weights) — serving tests exercise the
// scoring path, not the fitting recipe.
func synthHead(dim, classes int, seed uint64) *probe.Head {
	r := rng.New(seed)
	h := &probe.Head{
		Dim: dim, Classes: classes,
		W:    make([]float32, dim*classes),
		B:    make([]float32, classes),
		Mean: make([]float64, dim), InvStd: make([]float64, dim),
	}
	for i := range h.W {
		h.W[i] = float32(r.NormFloat64()) * 0.1
	}
	for i := range h.B {
		h.B[i] = float32(r.NormFloat64()) * 0.01
	}
	for i := range h.InvStd {
		h.InvStd[i] = 1
	}
	return h
}

// tinyModel is a fully headed servable model.
func tinyModel(seed uint64) *Model {
	m := NewModel(tinyMAECfg(), seed)
	w := m.MAE.Cfg.Encoder.Width
	m.AttachHeads(synthHead(w, 5, 101), synthHead(w, geodata.SegClasses, 102))
	return m
}

// imageFn renders a deterministic image per request index.
func imageFn(m *Model, seed uint64) func(i int) []float32 {
	n := m.ImageLen()
	return func(i int) []float32 {
		r := rng.New(seed + uint64(i)*0x9e3779b97f4a7c15)
		img := make([]float32, n)
		for j := range img {
			img[j] = float32(r.Float64()*2 - 1)
		}
		return img
	}
}

var mixedKinds = []Kind{Embed, Classify, Segment}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{MaxBatch: 0, QueueCap: 4, Workers: 1},
		{MaxBatch: 2, MaxWaitSec: -1, QueueCap: 4, Workers: 1},
		{MaxBatch: 2, MaxWaitSec: math.NaN(), QueueCap: 4, Workers: 1},
		{MaxBatch: 2, MaxWaitSec: math.Inf(1), QueueCap: 4, Workers: 1},
		{MaxBatch: 8, QueueCap: 4, Workers: 1},
		{MaxBatch: 2, QueueCap: 4, Workers: 0},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil || !strings.HasPrefix(err.Error(), "serve: ") {
			t.Errorf("config %d should be invalid with a serve: error: %+v, got %v", i, c, err)
		}
	}

	if err := simpleLat(1e-3, 1e-4).Validate(); err != nil {
		t.Fatalf("hand-set latency curve invalid: %v", err)
	}
	for _, l := range []LatencyModel{
		simpleLat(1e-3, -1), simpleLat(1e-3, math.NaN()), simpleLat(1e-3, math.Inf(1)),
		simpleLat(0, 1e-4), simpleLat(math.NaN(), 1e-4), simpleLat(math.Inf(1), 1e-4),
	} {
		if err := l.Validate(); err == nil || !strings.HasPrefix(err.Error(), "serve: ") {
			t.Errorf("latency curve %s should be invalid with a serve: error, got %v", l, err)
		}
	}
}

// TestPolicyBatchComposition pins the batcher's two close triggers on a
// hand-readable schedule: seven requests arriving 1 ms apart against
// MaxBatch 3 close as [0 1 2] (size), [3 4 5] (size), [6] (deadline).
func TestPolicyBatchComposition(t *testing.T) {
	m := tinyModel(7)
	cfg := Config{MaxBatch: 3, MaxWaitSec: 1.0, QueueCap: 16, Workers: 1}
	arrivals := UniformArrivals(1000, 7, mixedKinds, imageFn(m, 1))
	res, err := RunVirtual(cfg, DefaultLatency(m.MAE.Cfg.Encoder), m, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Batches) != 3 {
		t.Fatalf("got %d batches, want 3", len(res.Batches))
	}
	wantIDs := [][]uint64{{0, 1, 2}, {3, 4, 5}, {6}}
	wantReason := []string{"size", "size", "deadline"}
	for i, b := range res.Batches {
		if len(b.IDs) != len(wantIDs[i]) {
			t.Fatalf("batch %d has %d members, want %d", i, len(b.IDs), len(wantIDs[i]))
		}
		for j, id := range b.IDs {
			if id != wantIDs[i][j] {
				t.Errorf("batch %d member %d = request %d, want %d", i, j, id, wantIDs[i][j])
			}
		}
		if b.Reason != wantReason[i] {
			t.Errorf("batch %d closed for %q, want %q", i, b.Reason, wantReason[i])
		}
	}
	// The deadline batch closes exactly MaxWait after request 6 arrived.
	if got, want := res.Batches[2].CloseSec, arrivals[6].AtSec+cfg.MaxWaitSec; got != want {
		t.Errorf("deadline close at %v, want %v", got, want)
	}
	for _, r := range res.Responses {
		if r.Err != nil {
			t.Errorf("request %d failed: %v", r.ID, r.Err)
		}
	}
}

// TestShedOnFull drives a burst into a tiny queue behind a busy engine
// and checks overflow sheds instead of queueing without bound.
func TestShedOnFull(t *testing.T) {
	m := tinyModel(7)
	cfg := Config{MaxBatch: 2, MaxWaitSec: 1.0, QueueCap: 2, Workers: 1}
	// Slow engine: every batch takes 1 s, so the burst overruns the cap.
	var lat LatencyModel
	lat.LaunchSec = 0.1
	for k := Kind(0); k < numKinds; k++ {
		lat.PerItemSec[k] = 1
	}
	arrivals := UniformArrivals(1e6, 6, []Kind{Embed}, imageFn(m, 2))
	res, err := RunVirtual(cfg, lat, m, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	// 0,1 close and launch; 2,3 close and queue (outstanding 2);
	// 4 and 5 find the queue full.
	if res.Shed != 2 {
		t.Fatalf("shed %d requests, want 2", res.Shed)
	}
	for _, id := range []uint64{4, 5} {
		if !errors.Is(res.Responses[id].Err, ErrShed) {
			t.Errorf("request %d: err %v, want ErrShed", id, res.Responses[id].Err)
		}
	}
	for _, id := range []uint64{0, 1, 2, 3} {
		if res.Responses[id].Err != nil {
			t.Errorf("request %d failed: %v", id, res.Responses[id].Err)
		}
		if res.Responses[id].Embedding == nil {
			t.Errorf("request %d served without payload", id)
		}
	}
}

// sameRun asserts two virtual runs are identical to the last bit:
// batch log, traces, and response payloads.
func sameRun(t *testing.T, a, b *RunResult) {
	t.Helper()
	if len(a.Batches) != len(b.Batches) {
		t.Fatalf("batch counts differ: %d vs %d", len(a.Batches), len(b.Batches))
	}
	for i := range a.Batches {
		x, y := a.Batches[i], b.Batches[i]
		if x.Engine != y.Engine || x.Reason != y.Reason ||
			x.CloseSec != y.CloseSec || x.StartSec != y.StartSec || x.DoneSec != y.DoneSec {
			t.Fatalf("batch %d differs: %+v vs %+v", i, x, y)
		}
		if len(x.IDs) != len(y.IDs) {
			t.Fatalf("batch %d sizes differ", i)
		}
		for j := range x.IDs {
			if x.IDs[j] != y.IDs[j] || x.Kinds[j] != y.Kinds[j] {
				t.Fatalf("batch %d member %d differs", i, j)
			}
		}
	}
	if len(a.Responses) != len(b.Responses) {
		t.Fatalf("response counts differ")
	}
	for i := range a.Responses {
		x, y := a.Responses[i], b.Responses[i]
		if x.Trace != y.Trace {
			t.Fatalf("request %d traces differ: %+v vs %+v", i, x.Trace, y.Trace)
		}
		if !errors.Is(x.Err, y.Err) && !errors.Is(y.Err, x.Err) {
			t.Fatalf("request %d errors differ: %v vs %v", i, x.Err, y.Err)
		}
		sameFloats := func(label string, p, q []float32) {
			if len(p) != len(q) {
				t.Fatalf("request %d %s lengths differ", i, label)
			}
			for j := range p {
				if p[j] != q[j] {
					t.Fatalf("request %d %s[%d]: %v vs %v", i, label, j, p[j], q[j])
				}
			}
		}
		sameFloats("embedding", x.Embedding, y.Embedding)
		sameFloats("logits", x.Logits, y.Logits)
		if len(x.Labels) != len(y.Labels) {
			t.Fatalf("request %d label lengths differ", i)
		}
		for j := range x.Labels {
			if x.Labels[j] != y.Labels[j] {
				t.Fatalf("request %d label %d differs", i, j)
			}
		}
	}
	if a.MakespanSec != b.MakespanSec || a.Shed != b.Shed {
		t.Fatalf("summary differs: makespan %v vs %v, shed %d vs %d",
			a.MakespanSec, b.MakespanSec, a.Shed, b.Shed)
	}
}

// TestReplayDeterminism is the deterministic-serving property: the same
// request stream (same seed, virtual clock) produces bitwise-identical
// responses and identical batch compositions on every run. Running
// under -race additionally checks the shared-weights path never races.
func TestReplayDeterminism(t *testing.T) {
	cfg := Config{MaxBatch: 4, MaxWaitSec: 2e-3, QueueCap: 16, Workers: 2}
	run := func() *RunResult {
		m := tinyModel(7)
		lat := DefaultLatency(m.MAE.Cfg.Encoder)
		arrivals := PoissonArrivals(600, 60, mixedKinds, imageFn(m, 3), 42)
		res, err := RunVirtual(cfg, lat, m, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	sameRun(t, run(), run())
}

// TestVirtualMatchesSimulate holds the virtual executor to the serving
// simulator, and the simulator to its internal/sim replay, exactly:
// same stream, same policy, and every timestamp in every batch and
// trace agrees bitwise — the executed-vs-simulated contract with zero
// tolerance, because all sides run the same float operations.
func TestVirtualMatchesSimulate(t *testing.T) {
	m := tinyModel(7)
	lat := DefaultLatency(m.MAE.Cfg.Encoder)
	for _, cfg := range []Config{
		{MaxBatch: 4, MaxWaitSec: 2e-3, QueueCap: 16, Workers: 1},
		{MaxBatch: 8, MaxWaitSec: 5e-3, QueueCap: 32, Workers: 2},
	} {
		arrivals := PoissonArrivals(800, 80, mixedKinds, imageFn(m, 4), 13)
		virt, err := RunVirtual(cfg, lat, m, arrivals)
		if err != nil {
			t.Fatal(err)
		}
		simr, waits := simulate(t, cfg, lat, arrivals)
		if len(virt.Batches) != len(simr.Batches) {
			t.Fatalf("batch counts differ: virtual %d, sim %d", len(virt.Batches), len(simr.Batches))
		}
		for i := range virt.Batches {
			v, s := virt.Batches[i], simr.Batches[i]
			if v.CloseSec != s.CloseSec || v.StartSec != s.StartSec ||
				v.DoneSec != s.DoneSec || v.Engine != s.Engine || v.Reason != s.Reason {
				t.Fatalf("batch %d: virtual %+v, sim %+v", i, v, s)
			}
			if want := v.StartSec - v.CloseSec; waits[i] != want {
				t.Fatalf("batch %d dispatch wait %v, want %v", i, waits[i], want)
			}
		}
		for i := range virt.Responses {
			if virt.Responses[i].Trace != simr.Responses[i].Trace {
				t.Fatalf("request %d: virtual trace %+v, sim trace %+v",
					i, virt.Responses[i].Trace, simr.Responses[i].Trace)
			}
		}
		if virt.MakespanSec != simr.MakespanSec {
			t.Fatalf("makespan: virtual %v, sim %v", virt.MakespanSec, simr.MakespanSec)
		}
	}
}

// TestClosedLoop checks the closed-loop generator: every client keeps
// exactly one request in flight, all requests serve, and the run is
// deterministic.
func TestClosedLoop(t *testing.T) {
	m := tinyModel(7)
	cfg := Config{MaxBatch: 4, MaxWaitSec: 1e-3, QueueCap: 16, Workers: 1}
	cl := ClosedLoop{Clients: 3, PerClient: 5, ThinkSec: 1e-3,
		Mix: mixedKinds, Image: imageFn(m, 5)}
	run := func() *RunResult {
		res, err := RunClosedLoop(cfg, DefaultLatency(m.MAE.Cfg.Encoder), m, cl)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := run()
	if want := cl.Clients * cl.PerClient; len(a.Responses) != want {
		t.Fatalf("%d responses, want %d", len(a.Responses), want)
	}
	last := map[int]float64{}
	inFlight := map[int]int{}
	for _, r := range a.Responses {
		if r.Err != nil {
			t.Fatalf("request %d failed: %v", r.ID, r.Err)
		}
		// One in flight: this request arrived no earlier than the
		// client's previous completion plus think time.
		if prev, ok := last[r.Client]; ok && r.Trace.ArrivalSec < prev {
			t.Fatalf("client %d overlapped requests", r.Client)
		}
		last[r.Client] = r.Trace.DoneSec + cl.ThinkSec
		inFlight[r.Client]++
	}
	for c := 0; c < cl.Clients; c++ {
		if inFlight[c] != cl.PerClient {
			t.Fatalf("client %d issued %d requests, want %d", c, inFlight[c], cl.PerClient)
		}
	}
	sameRun(t, a, run())
}

// TestWallServer exercises the goroutine server end to end: submit,
// drain, the server's own record held to the batcher's invariants
// (every request completes exactly once, batches launch FIFO, no
// engine runs two batches at once), and every delivered payload
// re-derivable bitwise from the batch log by replaying each recorded
// composition through the same weights.
func TestWallServer(t *testing.T) {
	m := tinyModel(7)
	cfg := Config{MaxBatch: 4, MaxWaitSec: 1e-3, QueueCap: 64, Workers: 2}
	s, err := NewServer(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	const n = 24
	img := imageFn(m, 6)
	imgs := make([][]float32, n)
	chans := make([]<-chan *Response, n)
	for i := 0; i < n; i++ {
		imgs[i] = img(i)
		ch, err := s.Submit(mixedKinds[i%len(mixedKinds)], imgs[i])
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = ch
	}
	got := make([]*Response, n)
	for i, ch := range chans {
		got[i] = <-ch
	}
	st := s.Drain()
	if st.Served != n || st.Shed != 0 {
		t.Fatalf("served %d shed %d, want %d/0", st.Served, st.Shed, n)
	}
	if _, err := s.Submit(Embed, imgs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit after Drain: %v, want ErrClosed", err)
	}

	res := s.b.result(LatencyModel{})
	checkInvariants(t, cfg, res)
	if len(res.Responses) != n || len(res.Batches) != len(st.Batches) {
		t.Fatalf("server recorded %d responses and %d batches, want %d and %d",
			len(res.Responses), len(res.Batches), n, len(st.Batches))
	}
	for id, r := range got {
		if r != res.Responses[id] {
			t.Fatalf("request %d delivered a response the server did not record", id)
		}
	}

	// Rebuild every response from the recorded batch compositions.
	for _, b := range st.Batches {
		reqs := make([]*Request, len(b.IDs))
		refs := make([]*Response, len(b.IDs))
		for j, id := range b.IDs {
			reqs[j] = &Request{ID: id, Kind: b.Kinds[j], Img: imgs[id]}
			refs[j] = &Response{ID: id, Kind: b.Kinds[j]}
		}
		m.Fill(nn.NewInferCtx(), reqs, refs)
		for j, id := range b.IDs {
			r, ref := got[id], refs[j]
			for k := range ref.Embedding {
				if r.Embedding[k] != ref.Embedding[k] {
					t.Fatalf("request %d embedding[%d] differs from replay", id, k)
				}
			}
			for k := range ref.Logits {
				if r.Logits[k] != ref.Logits[k] {
					t.Fatalf("request %d logits[%d] differs from replay", id, k)
				}
			}
			for k := range ref.Labels {
				if r.Labels[k] != ref.Labels[k] {
					t.Fatalf("request %d label[%d] differs from replay", id, k)
				}
			}
		}
	}
}

// TestWallServerRejects pins the immediate-completion paths.
func TestWallServerRejects(t *testing.T) {
	m := NewModel(tinyMAECfg(), 7) // no heads
	cfg := DefaultConfig()
	s, err := NewServer(cfg, m)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain()
	ch, err := s.Submit(Classify, make([]float32, m.ImageLen()))
	if err != nil {
		t.Fatal(err)
	}
	if r := <-ch; !errors.Is(r.Err, ErrNoHead) {
		t.Fatalf("headless classify: %v, want ErrNoHead", r.Err)
	}
	ch, err = s.Submit(Embed, make([]float32, 3))
	if err != nil {
		t.Fatal(err)
	}
	if r := <-ch; !errors.Is(r.Err, ErrBadRequest) {
		t.Fatalf("short image: %v, want ErrBadRequest", r.Err)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := Percentile(xs, 0.5); got != 3 {
		t.Fatalf("p50 = %v, want 3", got)
	}
	if got := Percentile(xs, 0.99); got != 5 {
		t.Fatalf("p99 = %v, want 5", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Fatalf("empty percentile = %v, want 0", got)
	}
	// Percentile must not reorder its input.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestSummarizeAndTable(t *testing.T) {
	m := tinyModel(7)
	cfg := Config{MaxBatch: 4, MaxWaitSec: 2e-3, QueueCap: 8, Workers: 1}
	arrivals := PoissonArrivals(2000, 50, mixedKinds, imageFn(m, 8), 9)
	res, err := RunVirtual(cfg, DefaultLatency(m.MAE.Cfg.Encoder), m, arrivals)
	if err != nil {
		t.Fatal(err)
	}
	rep := Summarize("poisson-2000", res)
	if rep.Served+rep.Shed+rep.Rejected != rep.Total {
		t.Fatalf("counts do not add up: %+v", rep)
	}
	if rep.Total != 50 {
		t.Fatalf("total %d, want 50", rep.Total)
	}
	if rep.QueueP50 > rep.QueueP99 || rep.TotalP50 > rep.TotalP99 {
		t.Fatalf("percentiles out of order: %+v", rep)
	}
	if rep.TotalP50 < rep.QueueP50 {
		t.Fatalf("total latency below queue wait: %+v", rep)
	}
	if rep.Served > 0 && rep.ThroughputRPS <= 0 {
		t.Fatalf("throughput %v with %d served", rep.ThroughputRPS, rep.Served)
	}
	if rep.Utilization <= 0 || rep.Utilization > 1 {
		t.Fatalf("utilization %v outside (0,1]", rep.Utilization)
	}
	nBatches := 0
	for _, c := range rep.BatchHist {
		nBatches += c
	}
	if nBatches != len(res.Batches) {
		t.Fatalf("histogram covers %d batches, want %d", nBatches, len(res.Batches))
	}
	table := RenderTable([]Report{rep})
	if !strings.Contains(table, "poisson-2000") || !strings.Contains(table, "q_p99ms") {
		t.Fatalf("table missing fields:\n%s", table)
	}
}
