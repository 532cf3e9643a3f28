package probe

import (
	"fmt"

	"repro/internal/geodata"
	"repro/internal/metrics"
)

// Semantic segmentation probing — the paper's other envisioned
// downstream task. The frozen encoder produces one feature vector per
// patch token; a linear head classifies each token into the procedural
// ground-truth classes (background / structure / grid), trained with
// cross-entropy and evaluated by pixel^(patch) accuracy and mean IoU.

// DefaultSeg mirrors the classification probe's recipe.
func DefaultSeg() Config {
	return Config{Epochs: 40, BatchSize: 16, BaseLR: 0.1, Seed: 7}
}

// SegResult reports segmentation probing quality.
type SegResult struct {
	Dataset       string
	PatchAccuracy float64
	MeanIoU       float64
	PerClassIoU   []float64
	AccCurve      metrics.Series
}

// FitSegHead trains a per-token linear head on frozen per-token
// features (mae.Model.TokenFeatures) over the dataset's train split,
// evaluates it on the test split after every epoch, and returns the
// head with the last epoch's scores. patchSize must match the encoder's
// patch size so token labels align.
func FitSegHead(cfg Config, features FeatureFunc, featDim int,
	ds *geodata.Dataset, patchSize int) (*Head, *SegResult, error) {
	size := ds.Gen.Size
	if patchSize <= 0 {
		return nil, nil, fmt.Errorf("probe: non-positive patch size %d", patchSize)
	}
	if size%patchSize != 0 {
		return nil, nil, fmt.Errorf("probe: image %d not divisible by patch %d", size, patchSize)
	}
	grid := size / patchSize
	res := &SegResult{Dataset: ds.Name}
	res.AccCurve.Name = ds.Name + " seg patch-acc"
	mask := make([]uint8, size*size)
	head, err := fit(cfg, features, featDim, ds, task{
		classes: geodata.SegClasses, perImage: grid * grid, evalRows: 1024,
		sample: func(test bool, i int, img []float32, labels []int) {
			if test {
				ds.TestSampleWithMask(i, img, mask)
			} else {
				ds.TrainSampleWithMask(i, img, mask)
			}
			geodata.PatchLabels(mask, size, patchSize, labels)
		},
		evaluate: func(epoch int, logits []float32, labels []int) {
			res.PatchAccuracy, res.MeanIoU, res.PerClassIoU = segScores(logits, labels)
			res.AccCurve.Append(float64(epoch+1), res.PatchAccuracy)
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "%s seg epoch %3d: patch acc %.2f%%\n", ds.Name, epoch+1, 100*res.PatchAccuracy)
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	return head, res, nil
}

// segScores computes patch accuracy and per-class IoU from per-token
// logits.
func segScores(logits []float32, labels []int) (acc, meanIoU float64, perClass []float64) {
	const classes = geodata.SegClasses
	var inter, union [classes]int
	correct := 0
	for i, truth := range labels {
		pred := argmax(logits[i*classes : (i+1)*classes])
		union[truth]++
		if pred == truth {
			correct++
			inter[truth]++
		} else {
			union[pred]++
		}
	}
	perClass = make([]float64, classes)
	var sum float64
	seen := 0
	for c := 0; c < classes; c++ {
		if union[c] > 0 {
			perClass[c] = float64(inter[c]) / float64(union[c])
			sum += perClass[c]
			seen++
		}
	}
	if seen > 0 {
		meanIoU = sum / float64(seen)
	}
	return float64(correct) / float64(len(labels)), meanIoU, perClass
}

func argmax(v []float32) int {
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}
