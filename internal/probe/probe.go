// Package probe implements the paper's downstream evaluation protocol:
// linear probing. The pretrained encoder is frozen; features are the
// mean-pooled encoder outputs over all patch tokens; a single linear
// classifier is trained on top with the LARS optimizer (base LR 0.1,
// no weight decay, global batch per Section V-C), and top-1/top-5
// accuracy is recorded every epoch — the curves of Figure 6 and the
// final numbers of Table III.
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

// FeatureFunc maps a batch of channel-last images to (batch × dim)
// features. mae.Model.Features satisfies it.
type FeatureFunc func(imgs []float32, batch int) []float32

// Config carries the probing hyper-parameters; defaults follow the
// paper (LARS, base LR 0.1, no weight decay, 100 epochs).
type Config struct {
	BatchSize int
	Epochs    int
	BaseLR    float64
	Seed      uint64
	// FeatureBatch is the batch size used during one-time feature
	// extraction (defaults to BatchSize).
	FeatureBatch int
	Log          io.Writer
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

// Run trains a linear probe on frozen features over ds and returns the
// accuracy trajectory.
func Run(cfg Config, features FeatureFunc, featDim int, ds *geodata.Dataset) (*Result, error) {
	_, res, err := fitHead(cfg, features, featDim, ds)
	return res, err
}

// fitHead is the single probing implementation behind Run and FitHead:
// train the standardized linear classifier, then snapshot it.
func fitHead(cfg Config, features FeatureFunc, featDim int, ds *geodata.Dataset) (*Head, *Result, error) {
	if cfg.BatchSize <= 0 || cfg.Epochs <= 0 {
		return nil, nil, fmt.Errorf("probe: non-positive batch size or epochs")
	}
	fb := cfg.FeatureBatch
	if fb <= 0 {
		fb = cfg.BatchSize
	}
	classes := ds.Classes()

	trainX, trainY, err := extract(features, featDim, fb, ds.TrainCount, ds.TrainSample, ds.Gen.ImageLen())
	if err != nil {
		return nil, nil, err
	}
	testX, testY, err := extract(features, featDim, fb, ds.TestCount, ds.TestSample, ds.Gen.ImageLen())
	if err != nil {
		return nil, nil, err
	}
	// Standardize features with train-split statistics — the equivalent
	// of the (affine-free) BatchNorm the MAE linear-probing recipe
	// inserts before the classifier. Without it, feature scales vary
	// across encoders and LARS becomes unstable.
	mean, invStd := featureStats(trainX, featDim)
	standardize(trainX, mean, invStd, featDim)
	standardize(testX, mean, invStd, featDim)

	r := rng.New(cfg.Seed)
	head := nn.NewLinear("probe.head", featDim, classes, r)
	head.W.Value.Zero() // linear probing convention: zero-init classifier
	params := head.Params()
	optim := opt.NewLARS(params, 0)

	stepsPerEpoch := ds.TrainCount / cfg.BatchSize
	if stepsPerEpoch == 0 {
		stepsPerEpoch = 1
	}
	sched := opt.CosineSchedule{
		Base:        opt.ScaledLR(cfg.BaseLR, cfg.BatchSize),
		MinLR:       0,
		WarmupSteps: stepsPerEpoch, // one warmup epoch
		TotalSteps:  cfg.Epochs * stepsPerEpoch,
	}

	res := &Result{Dataset: ds.Name, TrainCount: ds.TrainCount, TestCount: ds.TestCount}
	res.Top1Curve.Name = ds.Name + " top1"
	res.Top5Curve.Name = ds.Name + " top5"

	batchX := make([]float32, cfg.BatchSize*featDim)
	batchY := make([]int, cfg.BatchSize)
	dlogits := make([]float32, cfg.BatchSize*classes)
	step := 0
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := r.Perm(ds.TrainCount)
		for s := 0; s < stepsPerEpoch; s++ {
			n := 0
			for ; n < cfg.BatchSize; n++ {
				src := perm[(s*cfg.BatchSize+n)%ds.TrainCount]
				copy(batchX[n*featDim:(n+1)*featDim], trainX[src*featDim:(src+1)*featDim])
				batchY[n] = trainY[src]
			}
			nn.ZeroGrads(params)
			logits := head.Forward(batchX[:n*featDim], n)
			nn.CrossEntropy(logits, batchY[:n], classes, dlogits[:n*classes])
			head.Backward(dlogits[:n*classes])
			optim.Step(sched.LR(step))
			step++
		}
		top1, top5 := evaluate(head, testX, testY, featDim, classes)
		res.Top1Curve.Append(float64(epoch+1), top1)
		res.Top5Curve.Append(float64(epoch+1), top5)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "%s epoch %3d: top1 %.2f%% top5 %.2f%%\n",
				ds.Name, epoch+1, 100*top1, 100*top5)
		}
	}
	res.FinalTop1 = res.Top1Curve.Last()
	res.FinalTop5 = res.Top5Curve.Last()
	return newHead(head, mean, invStd), res, nil
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
			invStd[j] += d * d
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

// extract runs the frozen feature extractor over a whole split.
func extract(features FeatureFunc, featDim, batch, count int,
	sample func(int, []float32) int, imgLen int) ([]float32, []int, error) {
	if count <= 0 {
		return nil, nil, fmt.Errorf("probe: empty split")
	}
	X := make([]float32, count*featDim)
	Y := make([]int, count)
	imgs := make([]float32, batch*imgLen)
	for start := 0; start < count; start += batch {
		end := start + batch
		if end > count {
			end = count
		}
		n := end - start
		for i := 0; i < n; i++ {
			Y[start+i] = sample(start+i, imgs[i*imgLen:(i+1)*imgLen])
		}
		f := features(imgs[:n*imgLen], n)
		copy(X[start*featDim:end*featDim], f[:n*featDim])
	}
	return X, Y, nil
}

// evaluate computes test top-1/top-5 for the current head.
func evaluate(head *nn.Linear, X []float32, Y []int, featDim, classes int) (float64, float64) {
	acc := metrics.NewAccuracy(classes)
	const evalBatch = 256
	for start := 0; start < len(Y); start += evalBatch {
		end := start + evalBatch
		if end > len(Y) {
			end = len(Y)
		}
		n := end - start
		logits := head.Forward(X[start*featDim:end*featDim], n)
		for i := 0; i < n; i++ {
			acc.Observe(logits[i*classes:(i+1)*classes], Y[start+i])
		}
	}
	return acc.Top1(), acc.Top5()
}
