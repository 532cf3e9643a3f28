package serve

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/geodata"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/vit"
)

// LatencyModel prices one batch execution on one engine: a fixed
// launch cost plus a per-request compute term, i.e. the α–β curve
// τ(batch) = Launch + Σᵢ PerItem(kindᵢ). This is the constant the
// virtual driver stamps time with and the serving simulator prices
// its batches with.
type LatencyModel struct {
	// LaunchSec is the fixed per-batch host cost (dispatch, gather).
	LaunchSec float64
	// PerItemSec is the modeled compute seconds per request by kind.
	PerItemSec [numKinds]float64
}

// BatchSec returns the modeled execution time of one batch.
func (l LatencyModel) BatchSec(kinds []Kind) float64 {
	if len(kinds) == 0 {
		return 0
	}
	d := l.LaunchSec
	for _, k := range kinds {
		d += l.PerItemSec[k]
	}
	return d
}

// Validate reports non-physical models.
func (l LatencyModel) Validate() error {
	if !finite(l.LaunchSec) || l.LaunchSec < 0 {
		return fmt.Errorf("serve: launch cost %v is not a finite non-negative time", l.LaunchSec)
	}
	for k := Kind(0); k < numKinds; k++ {
		if !finite(l.PerItemSec[k]) || l.PerItemSec[k] <= 0 {
			return fmt.Errorf("serve: per-item latency %v for %s is not a finite positive time", l.PerItemSec[k], k)
		}
	}
	return nil
}

// String renders the curve for reports.
func (l LatencyModel) String() string {
	return fmt.Sprintf("launch %.3fms + %.3fms/embed + %.3fms/classify + %.3fms/segment",
		1e3*l.LaunchSec, 1e3*l.PerItemSec[Embed], 1e3*l.PerItemSec[Classify], 1e3*l.PerItemSec[Segment])
}

// LatencyFromMachine derives the batch-latency curve for serving enc
// on machine m: the per-image term is the full-token ViT forward FLOP
// count (perfmodel, the same accounting fsdp.Simulate prices training
// with) over the machine's effective FLOP rate, and the launch term is
// the machine's per-call fixed cost. Embed and Classify price as the
// encoder forward (the classification head's W·classes GEMM is noise
// against it); Segment adds the per-token head term.
func LatencyFromMachine(m hw.Machine, enc vit.Config) LatencyModel {
	w := perfmodel.ViTWorkload(enc, 1)
	eff := m.EffectiveFLOPS()
	base := w.TotalForwardFLOPs() / eff
	segHead := 2 * float64(enc.Tokens()) * float64(enc.Width) * float64(geodata.SegClasses) / eff
	var lm LatencyModel
	lm.LaunchSec = m.CollectiveLaunch
	lm.PerItemSec[Embed] = base
	lm.PerItemSec[Classify] = base
	lm.PerItemSec[Segment] = base + segHead
	return lm
}

// LatencyFromProfile derives the curve from a measured hardware
// profile (cmd/calibrate output): MachineFor turns the profile's
// roofline, train-probe discount and contention into a calibrated
// hw.Machine, and the curve follows from it — so a serving simulation
// can be priced with this host's measurement instead of asserted
// constants.
func LatencyFromProfile(p *calib.HardwareProfile, enc vit.Config) (LatencyModel, error) {
	m, err := p.MachineFor(perfmodel.ViTWorkload(enc, 1), 1)
	if err != nil {
		return LatencyModel{}, err
	}
	return LatencyFromMachine(m, enc), nil
}

// DefaultLatency is LatencyFromMachine over the asserted laptop-class
// host — the deterministic default the golden tests and benchmarks
// pin.
func DefaultLatency(enc vit.Config) LatencyModel {
	return LatencyFromMachine(hw.DefaultHost(), enc)
}
