package train

import (
	"fmt"

	"repro/internal/fsdp"
	"repro/internal/opt"
)

// partitionFor returns the flat shard layout a (resolved) plan executes
// with at a given world size — the construction PretrainDistributed's
// ranks pad with: the plan's shard-group count, padded to a multiple of
// the whole world so the replica-group ring over one shard also chunks
// uniformly.
func partitionFor(plan fsdp.Plan, ranks, dim int) opt.Partition {
	return opt.NewPartition(dim, plan.ShardRanks(ranks), ranks)
}

// Reshard remaps a training state captured at one topology (the state's
// World/Strategy stamps) onto another: the N→M step of an elastic
// restart. The state's tensors are cut into the per-rank pieces the old
// layout's owner ranks held (opt.CutShards under the old partition,
// padding clipped), rejoined into the canonical flat buffers
// (opt.JoinShards validates the pieces tile the state exactly), and the
// result is restamped with the new world size and plan so
// PretrainDistributed's resume validation accepts it. States from
// before topology stamps existed (World 0) skip the cut/join and are
// only restamped.
//
// The new plan is validated against the new world (divisibility for
// HYBRID groups, known strategy) before any data moves, so an
// impossible target fails fast. Reshard never mutates its input; the
// returned state is an independent deep copy.
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
	out := st.clone()
	if st.World > 0 && st.Strategy != "" {
		oldPlan, err := fsdp.ParsePlanName(st.Strategy)
		if err != nil {
			return nil, fmt.Errorf("train: resharding: %w", err)
		}
		if oldPlan, err = resolvePlan(oldPlan, st.World); err != nil {
			return nil, fmt.Errorf("train: resharding from world %d %s: %w", st.World, st.Strategy, err)
		}
		shards, err := opt.CutShards(partitionFor(oldPlan, st.World, len(st.Master)), st.Master, st.OptM, st.OptV)
		if err != nil {
			return nil, fmt.Errorf("train: resharding: %w", err)
		}
		out.Master, out.OptM, out.OptV, err = opt.JoinShards(shards)
		if err != nil {
			return nil, fmt.Errorf("train: resharding: %w", err)
		}
	}
	out.World = ranks
	out.Strategy = plan.Name()
	return out, nil
}
