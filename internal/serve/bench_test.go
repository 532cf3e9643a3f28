package serve

import (
	"fmt"
	"testing"
)

// BenchmarkServe measures the executed wall-clock server under timed
// open-loop load: for each (arrival-rate multiple, batcher config)
// cell it replays a Poisson schedule against the real goroutine server
// and reports measured p50/p99 latency, throughput, and batch
// occupancy. Recorded into BENCH_serve.json by `make bench-serve` for
// the cross-PR perf trajectory.
func BenchmarkServe(b *testing.B) {
	m := tinyModel(7)
	lat := measureLatency(m)
	for _, cfg := range []Config{
		{MaxBatch: 4, MaxWaitSec: 2e-3, QueueCap: 256, Workers: 1},
		{MaxBatch: 8, MaxWaitSec: 5e-3, QueueCap: 256, Workers: 2},
	} {
		for _, mult := range []float64{0.5, 1.5} {
			kinds := make([]Kind, cfg.MaxBatch)
			for i := range kinds {
				kinds[i] = mixedKinds[i%len(mixedKinds)]
			}
			rate := mult * float64(cfg.Workers) * float64(cfg.MaxBatch) / lat.BatchSec(kinds)
			name := fmt.Sprintf("batch=%d/workers=%d/load=%gx", cfg.MaxBatch, cfg.Workers, mult)
			b.Run(name, func(b *testing.B) {
				var last Report
				for iter := 0; iter < b.N; iter++ {
					res, err := RunWall(cfg, m, PoissonArrivals(rate, 200, mixedKinds, imageFn(m, 35), 29))
					if err != nil {
						b.Fatal(err)
					}
					last = Summarize(name, res)
				}
				b.ReportMetric(last.ThroughputRPS, "req/s")
				b.ReportMetric(1e3*last.TotalP50, "p50-ms")
				b.ReportMetric(1e3*last.TotalP99, "p99-ms")
				b.ReportMetric(last.MeanBatch, "batch-occ")
				b.ReportMetric(float64(last.Shed), "shed")
				b.ReportMetric(last.Utilization, "util")
			})
		}
	}
}

// BenchmarkServeVirtual records the deterministic counterpart: the
// same load shapes through the virtual executor, where every metric is
// exactly reproducible run to run (the perf-trajectory baseline that
// cannot drift with host noise).
func BenchmarkServeVirtual(b *testing.B) {
	m := tinyModel(7)
	lat := DefaultLatency(m.MAE.Cfg.Encoder)
	cfg := Config{MaxBatch: 8, MaxWaitSec: 2e-3, QueueCap: 256, Workers: 1}
	b.Run("batch=8/rate=2000", func(b *testing.B) {
		var rep Report
		for iter := 0; iter < b.N; iter++ {
			arrivals := PoissonArrivals(2000, 200, mixedKinds, imageFn(m, 36), 31)
			res, err := RunVirtual(cfg, lat, m, arrivals)
			if err != nil {
				b.Fatal(err)
			}
			rep = Summarize("virtual", res)
		}
		b.ReportMetric(rep.ThroughputRPS, "req/s")
		b.ReportMetric(1e3*rep.TotalP50, "p50-ms")
		b.ReportMetric(1e3*rep.TotalP99, "p99-ms")
		b.ReportMetric(rep.MeanBatch, "batch-occ")
	})
}
