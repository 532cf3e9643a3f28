package calib

import (
	"fmt"
	"time"

	"repro/internal/comm"
	"repro/internal/dist"
)

// SweepPoint is one measured collective call: payload bytes on the
// wire model's x-axis and the per-call wall time on rank 0.
type SweepPoint struct {
	Bytes float64
	Sec   float64
}

// CollectiveFit is the measured α–β line for one (operation, dtype)
// pair at one world size, with the sweep it was fitted from.
type CollectiveFit struct {
	// Op is "allreduce", "reducescatter" or "allgather".
	Op string
	// DType is "fp32" or "bf16" — bf16 moves half the bytes per element
	// but pays conversion work, so it gets its own line.
	DType string
	Ranks int
	// Phases is the op's ring-pass count (2 for all-reduce, 1 for the
	// others): the factor that converts payload bytes to wire bytes,
	// phases·(n−1)/n·V.
	Phases float64
	// Alpha (s) and Beta (s/byte) fitted over Points: t = α + β·V with
	// V the payload bytes.
	Alpha, Beta float64
	Points      []SweepPoint
}

// WireBytes converts a payload size to the bytes each rank puts on the
// ring for this op.
func (f CollectiveFit) WireBytes(payload float64) float64 {
	n := float64(f.Ranks)
	return f.Phases * (n - 1) / n * payload
}

// Params converts the fit into the α–β link model dist and the
// simulator consume.
func (f CollectiveFit) Params() (comm.Params, error) {
	return comm.ParamsFromAlphaBeta(f.Alpha, f.Beta, f.Ranks, f.Phases)
}

// DefaultCollectiveSizes is the full message-size sweep in float32
// elements (payloads 4 KiB – 4 MiB). Every count divides by any ranks
// value up to 8.
func DefaultCollectiveSizes() []int {
	return []int{1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}
}

// QuickCollectiveSizes is the smoke-run sweep.
func QuickCollectiveSizes() []int {
	return []int{1 << 10, 1 << 13, 1 << 16}
}

// MeasureCollectives sweeps the executed ring collectives over an
// unthrottled dist.World of the given size: for each op × dtype ×
// payload size, reps lockstep calls run between barriers and rank 0's
// best window sets the per-call time (minimum over windows — the
// scheduler-noise-free sample). Each (op, dtype) sweep is then fitted
// to t = α + β·V.
func MeasureCollectives(ranks int, sizes []int, reps, windows int) ([]CollectiveFit, error) {
	if ranks < 2 {
		return nil, fmt.Errorf("calib: collective sweep needs ≥ 2 ranks, got %d", ranks)
	}
	if len(sizes) < 2 {
		return nil, fmt.Errorf("calib: collective sweep needs ≥ 2 sizes, got %d", len(sizes))
	}
	if reps < 1 {
		reps = 1
	}
	if windows < 1 {
		windows = 1
	}
	for _, s := range sizes {
		if s < ranks || s%ranks != 0 {
			return nil, fmt.Errorf("calib: sweep size %d not divisible by %d ranks", s, ranks)
		}
	}

	type opSpec struct {
		op     string
		dtype  string
		phases float64
		bytes  float64 // payload bytes per element
		kind   dist.Op
	}
	specs := []opSpec{
		{"allreduce", "fp32", 2, 4, dist.OpAllReduce},
		{"reducescatter", "fp32", 1, 4, dist.OpReduceScatter},
		{"allgather", "fp32", 1, 4, dist.OpAllGather},
		{"allreduce", "bf16", 2, 2, dist.OpAllReduce},
		{"reducescatter", "bf16", 1, 2, dist.OpReduceScatter},
		{"allgather", "bf16", 1, 2, dist.OpAllGather},
	}

	// times[spec][size]: rank 0's best per-call seconds.
	times := make([][]float64, len(specs))
	for i := range times {
		times[i] = make([]float64, len(sizes))
	}
	maxSize := sizes[len(sizes)-1]

	w := dist.New(ranks, dist.Options{Link: dist.DefaultLink(ranks)})
	all := make([]int, ranks)
	for i := range all {
		all[i] = i
	}
	g := w.Subgroup(all) // the world ring
	err := w.Run(func(r *dist.Rank) error {
		buf := make([]float32, maxSize)
		wire := make([]uint16, maxSize)
		for i := range buf {
			buf[i] = float32(r.ID() + i%7)
		}
		for si, sp := range specs {
			for zi, size := range sizes {
				c := dist.Collective{Op: sp.kind, Buf: buf[:size]}
				if sp.dtype == "bf16" {
					c.Wire = wire[:size]
				}
				g.Do(r, c).Wait() // warm this op's path
				for win := 0; win < windows; win++ {
					r.Barrier()
					t0 := time.Now()
					for i := 0; i < reps; i++ {
						g.Do(r, c).Wait()
					}
					r.Barrier()
					if el := time.Since(t0).Seconds() / float64(reps); r.ID() == 0 && (win == 0 || el < times[si][zi]) {
						times[si][zi] = el
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("calib: collective sweep: %w", err)
	}

	fits := make([]CollectiveFit, 0, len(specs))
	for si, sp := range specs {
		f := CollectiveFit{Op: sp.op, DType: sp.dtype, Ranks: ranks, Phases: sp.phases}
		xs := make([]float64, len(sizes))
		for zi, size := range sizes {
			xs[zi] = float64(size) * sp.bytes
			f.Points = append(f.Points, SweepPoint{Bytes: xs[zi], Sec: times[si][zi]})
		}
		var ferr error
		f.Alpha, f.Beta, ferr = FitAlphaBeta(xs, times[si])
		if ferr != nil {
			return nil, fmt.Errorf("calib: fitting %s/%s: %w", sp.op, sp.dtype, ferr)
		}
		fits = append(fits, f)
	}
	return fits, nil
}

// PooledLink reduces a dtype's per-op fits to the single α–β link the
// executed runs and the calibrated machine share. Pooling normalizes
// every sweep point to *wire* bytes (phases·(n−1)/n·V) — the quantity
// a shared ring actually carries — so one line fits all three ops:
// t = α + wire/B gives Launch = α and Bandwidth = B directly.
func PooledLink(fits []CollectiveFit, dtype string) (comm.Params, error) {
	var xs, ys []float64
	for _, f := range fits {
		if f.DType != dtype {
			continue
		}
		for _, p := range f.Points {
			xs = append(xs, f.WireBytes(p.Bytes))
			ys = append(ys, p.Sec)
		}
	}
	if len(xs) == 0 {
		return comm.Params{}, fmt.Errorf("calib: no %s collective fits in profile", dtype)
	}
	alpha, beta, err := FitAlphaBeta(xs, ys)
	if err != nil {
		return comm.Params{}, fmt.Errorf("calib: pooling %s link: %w", dtype, err)
	}
	if alpha < 0 {
		alpha = 0
	}
	return comm.Params{Bandwidth: 1 / beta, Launch: alpha}, nil
}
