package serve

import (
	"fmt"
	"os"
	"testing"
	"time"

	"repro/internal/trace"
)

// validateConfigs is the 2-config half of the validation matrix.
func validateConfigs() []Config {
	return []Config{
		{MaxBatch: 4, MaxWaitSec: 2e-3, QueueCap: 1000, Workers: 1},
		{MaxBatch: 8, MaxWaitSec: 5e-3, QueueCap: 1000, Workers: 1},
	}
}

// TestVirtualHeldToSimulatorMatrix is the hermetic half of the
// held-to-simulator contract: across 3 arrival rates × 2 batch
// configurations, the virtual executor's measured queue waits and
// batch occupancies equal the serving simulator's predictions exactly
// — zero tolerance, because on a virtual clock measurement and model
// are the same float operations.
func TestVirtualHeldToSimulatorMatrix(t *testing.T) {
	m := tinyModel(7)
	lat := DefaultLatency(m.MAE.Cfg.Encoder)
	for _, cfg := range validateConfigs() {
		for _, rate := range []float64{300, 900, 2700} {
			name := fmt.Sprintf("batch%d-rate%g", cfg.MaxBatch, rate)
			arrivals := PoissonArrivals(rate, 80, mixedKinds, imageFn(m, 31), 17)
			virt, err := RunVirtual(cfg, lat, m, arrivals)
			if err != nil {
				t.Fatal(err)
			}
			simr, _ := simulate(t, cfg, lat, arrivals)
			vr := Summarize(name, virt)
			sr := Summarize(name, simr)
			if vr.QueueP50 != sr.QueueP50 || vr.QueueP99 != sr.QueueP99 {
				t.Errorf("%s: queue waits diverge: virtual p50/p99 %v/%v, sim %v/%v",
					name, vr.QueueP50, vr.QueueP99, sr.QueueP50, sr.QueueP99)
			}
			if vr.MeanBatch != sr.MeanBatch {
				t.Errorf("%s: occupancy diverges: virtual %v, sim %v", name, vr.MeanBatch, sr.MeanBatch)
			}
			if vr.TotalP99 != sr.TotalP99 || vr.Utilization != sr.Utilization {
				t.Errorf("%s: p99/utilization diverge: %v/%v vs %v/%v",
					name, vr.TotalP99, vr.Utilization, sr.TotalP99, sr.Utilization)
			}
		}
	}
}

// TestSimulatedP99MonotoneInRate checks the simulator's shape: in the
// saturated regime, driving the same inter-arrival draws faster can
// only push tail latency up.
func TestSimulatedP99MonotoneInRate(t *testing.T) {
	lat := simpleLat(1e-3, 2e-4)
	for _, cfg := range validateConfigs() {
		prev := -1.0
		for _, rate := range []float64{800, 1600, 3200} {
			// Same seed: arrival times scale exactly by the rate ratio.
			arrivals := PoissonArrivals(rate, 300, []Kind{Embed}, func(int) []float32 { return nil }, 5)
			res, _ := simulate(t, cfg, lat, arrivals)
			r := Summarize("", res)
			if r.Shed != 0 {
				t.Fatalf("unexpected shed at rate %g", rate)
			}
			if r.TotalP99 < prev {
				t.Errorf("config %+v: p99 fell from %v to %v as rate rose to %g",
					cfg, prev, r.TotalP99, rate)
			}
			prev = r.TotalP99
		}
	}
}

// TestWallClockHeldToSimulator is the measured half: a real Server
// under timed load, held to the serving simulator within a tolerance
// band. It times actual compute on this host, so like the calibration
// suite it is not part of hermetic tier-1: set SERVE_VALIDATE=1 to run
// it (the CI calibration job does).
func TestWallClockHeldToSimulator(t *testing.T) {
	if os.Getenv("SERVE_VALIDATE") == "" {
		t.Skip("timing suite; set SERVE_VALIDATE=1 to run")
	}
	m := tinyModel(7)
	lat := measureLatency(m)
	t.Logf("measured curve: %s", lat)

	for _, cfg := range validateConfigs() {
		for _, mult := range []float64{0.4, 0.8, 1.6} {
			// Rates relative to this host's measured single-engine
			// capacity at full batches.
			kinds := make([]Kind, cfg.MaxBatch)
			for i := range kinds {
				kinds[i] = mixedKinds[i%len(mixedKinds)]
			}
			capacity := float64(cfg.MaxBatch) / lat.BatchSec(kinds)
			rate := mult * capacity
			name := fmt.Sprintf("batch%d-x%g", cfg.MaxBatch, mult)
			t.Run(name, func(t *testing.T) {
				wall, err := RunWall(cfg, m, PoissonArrivals(rate, 100, mixedKinds, imageFn(m, 33), 23))
				if err != nil {
					t.Fatal(err)
				}
				checkInvariants(t, cfg, wall)

				// Feed the *measured* admission instants to the simulator so
				// submission jitter is not charged to the model.
				simArr := make([]Arrival, len(wall.Responses))
				for i, r := range wall.Responses {
					simArr[i] = Arrival{AtSec: r.Trace.ArrivalSec, Kind: r.Kind}
				}
				simr, _ := simulate(t, cfg, lat, simArr)

				meas := Summarize(name, wall)
				pred := Summarize(name, simr)
				t.Logf("measured: %s", RenderTable([]Report{meas}))
				t.Logf("predicted: %s", RenderTable([]Report{pred}))

				queue := trace.Agreement{Label: name + "/queue-p50",
					MeasuredSec: meas.QueueP50, PredictedSec: pred.QueueP50, FloorSec: 2e-3}
				if !queue.Within(3) {
					t.Errorf("queue wait off the simulator: %s", queue)
				}
				occ := trace.Agreement{Label: name + "/occupancy",
					MeasuredSec: meas.MeanBatch, PredictedSec: pred.MeanBatch}
				if !occ.Within(1.75) {
					t.Errorf("batch occupancy off the simulator: %s", occ)
				}
			})
		}
	}
}

// measureLatency fits the serving latency curve to this host: best-of
// timings of a singleton and a full batch give the launch and per-item
// terms (the simulator's α and β).
func measureLatency(m *Model) LatencyModel {
	img := imageFn(m, 34)
	timeBatch := func(size int) float64 {
		reqs := make([]*Request, size)
		resps := make([]*Response, size)
		for i := 0; i < size; i++ {
			reqs[i] = &Request{ID: uint64(i), Kind: mixedKinds[i%len(mixedKinds)], Img: img(i)}
			resps[i] = &Response{ID: uint64(i), Kind: reqs[i].Kind}
		}
		exec := newModelExec(m)
		job := &batchJob{reqs: reqs, resps: resps}
		best := 0.0
		for rep := 0; rep < 5; rep++ {
			t0 := time.Now()
			exec(job)
			if d := time.Since(t0).Seconds(); rep == 0 || d < best {
				best = d
			}
		}
		return best
	}
	t1 := timeBatch(1)
	t8 := timeBatch(8)
	per := (t8 - t1) / 7
	if per <= 0 {
		per = t1
	}
	launch := t1 - per
	if launch < 0 {
		launch = 0
	}
	var lat LatencyModel
	lat.LaunchSec = launch
	for k := Kind(0); k < numKinds; k++ {
		lat.PerItemSec[k] = per
	}
	return lat
}
