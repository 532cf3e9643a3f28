package train

import (
	"fmt"

	"repro/internal/fsdp"
)

// Reshard remaps a training state captured at one topology (the state's
// World/Strategy stamps) onto another: the N→M step of an elastic
// restart. A TrainState is canonical flat state — unpadded, in parameter
// order, with no trace of which rank owned which span — so there is no
// layout to convert: every world and strategy cuts its own spans out of
// the same tensors at restore time (newRank). Re-sharding is validation
// plus the restamp PretrainDistributed's resume check looks at.
//
// Both topologies are validated — the state's own stamps must name a
// plan that could have run at its world (states from before stamps
// existed, World 0, have none to check), and the new plan must fit the
// new world — so a corrupt stamp or an impossible target fails fast.
// Reshard never mutates its input; it returns an independent deep copy.
func Reshard(st *TrainState, ranks int, plan fsdp.Plan) (*TrainState, error) {
	if st == nil {
		return nil, fmt.Errorf("train: resharding a nil state")
	}
	if err := st.validate(); err != nil {
		return nil, err
	}
	plan, err := resolvePlan(plan, ranks)
	if err != nil {
		return nil, err
	}
	if st.World > 0 && st.Strategy != "" {
		oldPlan, err := fsdp.ParsePlanName(st.Strategy)
		if err != nil {
			return nil, fmt.Errorf("train: resharding: %w", err)
		}
		if _, err = resolvePlan(oldPlan, st.World); err != nil {
			return nil, fmt.Errorf("train: resharding from world %d %s: %w", st.World, st.Strategy, err)
		}
	}
	out := st.clone()
	out.World = ranks
	out.Strategy = plan.Name()
	return out, nil
}
