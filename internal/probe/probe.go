// Package probe implements the paper's downstream evaluation protocol:
// linear probing. The pretrained encoder is frozen; features are the
// mean-pooled encoder outputs over all patch tokens; a single linear
// classifier is trained on top with the LARS optimizer (base LR 0.1,
// no weight decay, global batch per Section V-C), and top-1/top-5
// accuracy is recorded every epoch — the curves of Figure 6 and the
// final numbers of Table III. Segmentation probing (FitSegHead) runs the
// same recipe with one row per patch token instead of one per image.
//
// Because the trunk is frozen, features for the probe train/test splits
// are extracted once and cached, which is exactly equivalent to (and
// much faster than) re-running the encoder every epoch.
package probe

import (
	"fmt"
	"io"
	"math"

	"repro/internal/geodata"
	"repro/internal/metrics"
	"repro/internal/nn"
	"repro/internal/opt"
	"repro/internal/rng"
)

// FeatureFunc maps a batch of channel-last images to frozen features,
// a fixed number of rows of one width per image: mae.Model.Features
// gives one mean-pooled row per image (batch × dim), the classification
// probe's input; mae.Model.TokenFeatures gives one row per patch token
// (batch·tokens × dim), the segmentation probe's. Both run the one
// frozen encoder pass serving runs (mae.Model.Encode on a frozen
// arena), so a served head sees the features it was fitted on, bit for
// bit; mae.Model.FeaturesWithGrad, fine-tuning's, runs the same pass on
// the model's recording arena for a backward.
type FeatureFunc func(imgs []float32, batch int) []float32

// Config carries the probing hyper-parameters of both probes; defaults
// follow the paper (LARS, base LR 0.1, no weight decay, 100 epochs).
type Config struct {
	BatchSize int // images per step
	Epochs    int
	BaseLR    float64
	Seed      uint64
	Log       io.Writer
}

// Default returns the paper's probing configuration for the given
// global batch size (256 for UCM/AID/NWPU, 1024 for MillionAID).
func Default(batch int) Config {
	return Config{BatchSize: batch, Epochs: 100, BaseLR: 0.1, Seed: 7}
}

// Result is the outcome of probing one (model, dataset) pair.
type Result struct {
	Dataset    string
	Top1Curve  metrics.Series // per-epoch test top-1 (fractions)
	Top5Curve  metrics.Series // per-epoch test top-5
	FinalTop1  float64
	FinalTop5  float64
	TrainCount int
	TestCount  int
}

// FitHead trains a linear classifier on frozen features over ds and
// returns the trained head, packaged for serving, with the accuracy
// trajectory.
func FitHead(cfg Config, features FeatureFunc, featDim int, ds *geodata.Dataset) (*Head, *Result, error) {
	classes := ds.Classes()
	res := &Result{Dataset: ds.Name, TrainCount: ds.TrainCount, TestCount: ds.TestCount}
	res.Top1Curve.Name = ds.Name + " top1"
	res.Top5Curve.Name = ds.Name + " top5"
	head, err := fit(cfg, features, featDim, ds, task{
		classes: classes, perImage: 1, evalRows: 256,
		sample: func(test bool, i int, img []float32, labels []int) {
			if test {
				labels[0] = ds.TestSample(i, img)
			} else {
				labels[0] = ds.TrainSample(i, img)
			}
		},
		evaluate: func(epoch int, logits []float32, labels []int) {
			acc := metrics.NewAccuracy(classes)
			for i, y := range labels {
				acc.Observe(logits[i*classes:(i+1)*classes], y)
			}
			res.Top1Curve.Append(float64(epoch+1), acc.Top1())
			res.Top5Curve.Append(float64(epoch+1), acc.Top5())
			if cfg.Log != nil {
				fmt.Fprintf(cfg.Log, "%s epoch %3d: top1 %.2f%% top5 %.2f%%\n",
					ds.Name, epoch+1, 100*acc.Top1(), 100*acc.Top5())
			}
		},
	})
	if err != nil {
		return nil, nil, err
	}
	res.FinalTop1 = res.Top1Curve.Last()
	res.FinalTop5 = res.Top5Curve.Last()
	return head, res, nil
}

// task is what one probe adds to the shared recipe: what a row is, how
// an image's rows are labeled, and what the test logits are scored as.
type task struct {
	classes  int
	perImage int // feature rows, and labels, per image
	// evalRows is the test rows per evaluation forward. It is part of
	// the result: the chunk's shape picks the streaming or the blocked
	// GEMM, whose logits may differ in the last bit.
	evalRows int
	// sample renders image i of the train (or test) split into img and
	// writes its perImage labels.
	sample func(test bool, i int, img []float32, labels []int)
	// evaluate scores the logits of every test row after an epoch.
	evaluate func(epoch int, logits []float32, labels []int)
}

// fit is the one linear-probing recipe. Both splits pass through the
// frozen extractor once and are standardized with the train split's
// statistics — the equivalent of the (affine-free) BatchNorm the MAE
// linear-probing recipe inserts before the classifier; without it,
// feature scales vary across encoders and LARS becomes unstable. A
// zero-initialized linear head then trains with LARS on a cosine
// schedule (one warm-up epoch, the rate scaled by rows per step) over
// permuted mini-batches of BatchSize images' rows that wrap around the
// train split, and the test rows are scored after every epoch.
func fit(cfg Config, features FeatureFunc, featDim int, ds *geodata.Dataset, t task) (*Head, error) {
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		return nil, fmt.Errorf("probe: non-positive batch size or epochs")
	}
	if featDim <= 0 {
		return nil, fmt.Errorf("probe: non-positive feature dimension %d", featDim)
	}
	trainX, trainY, err := extract(features, featDim, cfg.BatchSize, ds.TrainCount, ds.Gen.ImageLen(), false, t)
	if err != nil {
		return nil, err
	}
	testX, testY, err := extract(features, featDim, cfg.BatchSize, ds.TestCount, ds.Gen.ImageLen(), true, t)
	if err != nil {
		return nil, err
	}
	mean, invStd := featureStats(trainX, featDim)
	standardize(trainX, mean, invStd, featDim)
	standardize(testX, mean, invStd, featDim)

	// The Xavier draws are discarded by the zero-init convention, but
	// they advance r and so fix every batch permutation after them.
	r := rng.New(cfg.Seed)
	head := nn.NewLinear("probe.head", featDim, t.classes, r)
	head.W.Value.Zero()
	ctx := nn.NewTrainCtx()
	params := head.Params()
	optim := opt.NewLARS(params, 0)

	rows, perStep := len(trainY), cfg.BatchSize*t.perImage
	stepsPerEpoch := max(rows/perStep, 1)
	sched := opt.CosineSchedule{
		Base:        opt.ScaledLR(cfg.BaseLR, perStep),
		WarmupSteps: stepsPerEpoch,
		TotalSteps:  cfg.Epochs * stepsPerEpoch,
	}
	batchX := make([]float32, perStep*featDim)
	batchY := make([]int, perStep)
	dlogits := make([]float32, perStep*t.classes)
	testLogits := make([]float32, len(testY)*t.classes)
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(rows)
		for s := 0; s < stepsPerEpoch; s++ {
			for n := range batchY {
				src := perm[(s*perStep+n)%rows]
				copy(batchX[n*featDim:(n+1)*featDim], trainX[src*featDim:(src+1)*featDim])
				batchY[n] = trainY[src]
			}
			nn.ZeroGrads(params)
			ctx.Reset()
			nn.CrossEntropy(head.Apply(ctx, batchX, perStep), batchY, t.classes, dlogits)
			head.Backprop(nil, dlogits)
			optim.Step(sched.LR(step))
			step++
		}
		for lo := 0; lo < len(testY); lo += t.evalRows {
			hi := min(lo+t.evalRows, len(testY))
			ctx.Reset()
			copy(testLogits[lo*t.classes:], head.Apply(ctx, testX[lo*featDim:hi*featDim], hi-lo))
		}
		t.evaluate(epoch, testLogits, testY)
	}
	return newHead(head, mean, invStd), nil
}

// extract runs the frozen extractor over a whole split, t.perImage rows
// per image. Every call must return exactly rows × featDim values, so a
// featDim or patch size that does not match the encoder fails here.
func extract(features FeatureFunc, featDim, batch, count, imgLen int, test bool, t task) ([]float32, []int, error) {
	if count <= 0 {
		return nil, nil, fmt.Errorf("probe: empty split")
	}
	per := t.perImage
	X := make([]float32, count*per*featDim)
	Y := make([]int, count*per)
	imgs := make([]float32, batch*imgLen)
	for start := 0; start < count; start += batch {
		n := min(batch, count-start)
		for i := 0; i < n; i++ {
			t.sample(test, start+i, imgs[i*imgLen:(i+1)*imgLen], Y[(start+i)*per:(start+i+1)*per])
		}
		f := features(imgs[:n*imgLen], n)
		if len(f) != n*per*featDim {
			return nil, nil, fmt.Errorf("probe: extractor returned %d values for %d images, want %d rows × %d",
				len(f), n, n*per, featDim)
		}
		copy(X[start*per*featDim:], f)
	}
	return X, Y, nil
}

// featureStats returns per-dimension mean and inverse standard
// deviation over a (n × dim) feature matrix.
func featureStats(x []float32, dim int) (mean, invStd []float64) {
	n := len(x) / dim
	mean = make([]float64, dim)
	invStd = make([]float64, dim)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			mean[j] += float64(x[i*dim+j])
		}
	}
	for j := range mean {
		mean[j] /= float64(n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			d := float64(x[i*dim+j]) - mean[j]
			invStd[j] += float64(d * d)
		}
	}
	// Floor each dimension's std at a fraction of the average std so
	// near-dead dimensions are not amplified into pure noise.
	var avgVar float64
	for j := range invStd {
		invStd[j] /= float64(n)
		avgVar += invStd[j]
	}
	avgVar /= float64(dim)
	floor := 0.05 * math.Sqrt(avgVar+1e-12)
	for j := range invStd {
		sd := math.Sqrt(invStd[j])
		if sd < floor {
			sd = floor
		}
		//statgate:allow floateq — divide-by-zero guard; only an exactly-zero sd is dangerous
		if sd == 0 {
			sd = 1
		}
		invStd[j] = 1 / sd
	}
	return mean, invStd
}

// standardize applies (x−mean)·invStd in place.
func standardize(x []float32, mean, invStd []float64, dim int) {
	n := len(x) / dim
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			x[i*dim+j] = float32((float64(x[i*dim+j]) - mean[j]) * invStd[j])
		}
	}
}
