package probe

import (
	"fmt"

	"repro/internal/geodata"
)

// FewShot evaluates k-shot downstream adaptation — one of the paper's
// envisioned next steps ("configurations such as few-shot learning"):
// the probe sees only `shots` labeled examples per class and is
// evaluated on the full test split.
//
// Because geodata datasets assign labels round-robin (sample i has
// class i mod K, instance i/K), the first shots·K training indices are
// exactly instances 0…shots−1 of every class, so the k-shot subset is a
// prefix of the train split.
func FewShot(cfg Config, features FeatureFunc, featDim int, ds *geodata.Dataset, shots int) (*Result, error) {
	if shots < 1 {
		return nil, fmt.Errorf("probe: shots must be ≥1, got %d", shots)
	}
	sub := *ds
	sub.Name = fmt.Sprintf("%s-%dshot", ds.Name, shots)
	sub.TrainCount = shots * ds.Classes()
	if sub.TrainCount > ds.TrainCount {
		return nil, fmt.Errorf("probe: %d shots × %d classes exceeds train split of %d",
			shots, ds.Classes(), ds.TrainCount)
	}
	if cfg.BatchSize > sub.TrainCount {
		cfg.BatchSize = sub.TrainCount
	}
	_, res, err := FitHead(cfg, features, featDim, &sub)
	return res, err
}

// ShotSweep runs FewShot for each of the given shot counts and returns
// results in order — the curve of accuracy versus labeled-data budget.
func ShotSweep(cfg Config, features FeatureFunc, featDim int, ds *geodata.Dataset, shots []int) ([]*Result, error) {
	var out []*Result
	for _, k := range shots {
		r, err := FewShot(cfg, features, featDim, ds, k)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
