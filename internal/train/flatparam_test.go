package train

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/fsdp"
)

// TestReplicaTensorsAreFlatViews: a distributed rank keeps its
// parameters and gradients once. After a run every replica's
// Value windows are consecutive in memory, in Params() order, and
// so are its Grad windows — the slices the model computes on are
// the flat buffers the collectives and the optimizer work on, not a
// mirror copied to and from them every step.
func TestReplicaTensorsAreFlatViews(t *testing.T) {
	for _, plan := range []fsdp.Plan{fsdp.DefaultDDP(), fsdp.BestPractice(fsdp.FullShard, 0)} {
		for _, prec := range []Precision{FP32, BF16} {
			t.Run(fmt.Sprintf("%s/%s", plan.Name(), prec), func(t *testing.T) {
				cfg := tinyDistConfig(2, plan)
				cfg.Epochs = 1
				cfg.Precision = prec
				res, err := PretrainDistributed(cfg, tinyDataset(32))
				if err != nil {
					t.Fatal(err)
				}
				for rank, m := range res.replicas {
					var nextW, nextG unsafe.Pointer
					for i, p := range m.Params() {
						w, g := p.Value, p.Grad
						if i > 0 && (unsafe.Pointer(unsafe.SliceData(w)) != nextW || unsafe.Pointer(unsafe.SliceData(g)) != nextG) {
							t.Fatalf("rank %d: parameter %d (%s) does not start where parameter %d ends", rank, i, p.Name, i-1)
						}
						nextW = unsafe.Add(unsafe.Pointer(unsafe.SliceData(w)), 4*len(w))
						nextG = unsafe.Add(unsafe.Pointer(unsafe.SliceData(g)), 4*len(g))
					}
				}
			})
		}
	}
}
