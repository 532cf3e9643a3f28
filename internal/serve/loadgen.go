package serve

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/nn"
	"repro/internal/rng"
)

// PoissonArrivals builds a deterministic open-loop request schedule:
// n requests with exponential inter-arrival gaps at the given mean
// rate (requests/s), kinds assigned cyclically from mix, and images
// rendered by index. The same seed always yields the same schedule to
// the last bit, which is what makes whole serving runs replayable.
func PoissonArrivals(rate float64, n int, mix []Kind, image func(i int) []float32, seed uint64) []Arrival {
	if rate <= 0 || n <= 0 || len(mix) == 0 {
		return nil
	}
	r := rng.New(seed)
	arrivals := make([]Arrival, n)
	t := 0.0
	for i := 0; i < n; i++ {
		// Exponential gap via inversion; 1-U keeps the argument in (0,1].
		t += -math.Log(1-r.Float64()) / rate
		arrivals[i] = Arrival{
			AtSec: t,
			Kind:  mix[i%len(mix)],
			Img:   image(i),
		}
	}
	return arrivals
}

// UniformArrivals builds an evenly spaced open-loop schedule (one
// request every 1/rate seconds, first at 1/rate) — the degenerate
// arrival process used by golden tests that want batch compositions
// readable by hand.
func UniformArrivals(rate float64, n int, mix []Kind, image func(i int) []float32) []Arrival {
	if rate <= 0 || n <= 0 || len(mix) == 0 {
		return nil
	}
	gap := 1 / rate
	arrivals := make([]Arrival, n)
	for i := 0; i < n; i++ {
		arrivals[i] = Arrival{
			AtSec: float64(i+1) * gap,
			Kind:  mix[i%len(mix)],
			Img:   image(i),
		}
	}
	return arrivals
}

// ClosedLoop describes a closed-loop load test: Clients concurrent
// clients, each holding one request in flight, issuing its next
// request ThinkSec after the previous response lands, PerClient times.
type ClosedLoop struct {
	Clients   int
	PerClient int
	ThinkSec  float64
	Mix       []Kind
	// Image renders the payload for global request index
	// client*PerClient + sequence.
	Image func(i int) []float32
}

// RunClosedLoop drives a closed-loop load test through the virtual
// executor: every client's first request arrives at time zero (admitted
// in client order), and each completion schedules that client's next
// arrival — the policy loop's onDone hook, so the whole run stays one
// deterministic event sequence.
func RunClosedLoop(cfg Config, lat LatencyModel, model *Model, cl ClosedLoop) (*RunResult, error) {
	if cl.Clients <= 0 || cl.PerClient <= 0 || len(cl.Mix) == 0 {
		return nil, fmt.Errorf("serve: closed loop needs clients, requests and a kind mix")
	}
	arrival := func(c, seq int, at float64) Arrival {
		i := c*cl.PerClient + seq
		return Arrival{AtSec: at, Kind: cl.Mix[i%len(cl.Mix)], Img: cl.Image(i), Client: c}
	}
	initial := make([]Arrival, cl.Clients)
	for c := 0; c < cl.Clients; c++ {
		initial[c] = arrival(c, 0, 0)
	}
	issued := make([]int, cl.Clients)
	for c := range issued {
		issued[c] = 1
	}
	onDone := func(resp *Response, doneSec float64, push func(Arrival)) {
		c := resp.Client
		if issued[c] >= cl.PerClient {
			return
		}
		push(arrival(c, issued[c], doneSec+cl.ThinkSec))
		issued[c]++
	}

	return runPolicy(cfg, lat, model.admissible, newModelExec(model), onDone, initial)
}

// newModelExec returns a policy exec hook that runs real batch compute
// on the shared weights with one scratch arena (the virtual driver
// executes batches serially).
func newModelExec(model *Model) func(*batchJob) {
	ctx := nn.NewInferCtx()
	return func(job *batchJob) { model.Fill(ctx, job.reqs, job.resps) }
}

// Report summarizes one serving run for the p50/p99 tables and
// BENCH_serve.json.
type Report struct {
	Label string
	// Total admissions, how many were served, shed on a full queue, or
	// rejected at validation.
	Total, Served, Shed, Rejected int
	MakespanSec                   float64
	// ThroughputRPS is served requests over makespan.
	ThroughputRPS float64
	// MeanBatch is the mean occupancy of executed batches.
	MeanBatch float64
	// BatchHist counts executed batches by size (index = size).
	BatchHist []int
	// Queue percentiles are over admission→compute-start waits of
	// served requests; Total percentiles over admission→completion.
	QueueP50, QueueP99 float64
	TotalP50, TotalP99 float64
	// Utilization is engine busy time over Workers × makespan.
	Utilization float64
}

// Percentile returns the nearest-rank q-quantile (q in (0,1]) of xs.
// xs is copied and sorted; an empty slice yields 0.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return s[idx]
}

// Summarize reduces a run to its report.
func Summarize(label string, res *RunResult) Report {
	r := Report{Label: label, Total: len(res.Responses), MakespanSec: res.MakespanSec}
	var queue, total []float64
	for _, resp := range res.Responses {
		switch resp.Err {
		case nil:
			r.Served++
			queue = append(queue, resp.Trace.QueueWaitSec())
			total = append(total, resp.Trace.TotalSec())
		case ErrShed:
			r.Shed++
		default:
			r.Rejected++
		}
	}
	busy := 0.0
	sumOcc := 0
	for _, b := range res.Batches {
		busy += b.DoneSec - b.StartSec
		n := len(b.IDs)
		sumOcc += n
		for len(r.BatchHist) <= n {
			r.BatchHist = append(r.BatchHist, 0)
		}
		r.BatchHist[n]++
	}
	if len(res.Batches) > 0 {
		r.MeanBatch = float64(sumOcc) / float64(len(res.Batches))
	}
	if res.MakespanSec > 0 {
		r.ThroughputRPS = float64(r.Served) / res.MakespanSec
		r.Utilization = busy / (float64(res.Cfg.Workers) * res.MakespanSec)
	}
	r.QueueP50 = Percentile(queue, 0.50)
	r.QueueP99 = Percentile(queue, 0.99)
	r.TotalP50 = Percentile(total, 0.50)
	r.TotalP99 = Percentile(total, 0.99)
	return r
}

// RenderTable formats reports as the fixed-width table cmd/serve
// prints (latencies in ms, one row per report).
func RenderTable(reports []Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s %6s %6s %5s %6s %7s %9s %9s %9s %9s %5s\n",
		"run", "total", "served", "shed", "batch", "rps", "q_p50ms", "q_p99ms", "t_p50ms", "t_p99ms", "util")
	for _, r := range reports {
		fmt.Fprintf(&b, "%-22s %6d %6d %5d %6.2f %7.1f %9.3f %9.3f %9.3f %9.3f %5.2f\n",
			r.Label, r.Total, r.Served, r.Shed, r.MeanBatch, r.ThroughputRPS,
			1e3*r.QueueP50, 1e3*r.QueueP99, 1e3*r.TotalP50, 1e3*r.TotalP99, r.Utilization)
	}
	return b.String()
}
