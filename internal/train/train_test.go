package train

import (
	"bytes"
	"math"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/fsdp"
	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/nn"
	"repro/internal/rng"
	"repro/internal/tensor"
	"repro/internal/vit"
)

func tinyMAE() mae.Config {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 3}
	return mae.Config{Encoder: enc, DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75}
}

func tinyDataset(count int) *geodata.Dataset {
	gen := geodata.NewSceneGen(4, 12, 3, 11)
	return &geodata.Dataset{Name: "tiny", Gen: gen, TrainCount: count, TestCount: count / 2}
}

func TestPretrainLossDecreases(t *testing.T) {
	// BaseLR is raised relative to the paper's 1.5e-4 because the linear
	// batch-scaling rule divides by 256 while the test batch is only 8.
	cfg := PretrainConfig{
		MAE:          tinyMAE(),
		BatchSize:    8,
		Epochs:       8,
		BaseLR:       0.08,
		WeightDecay:  0.05,
		WarmupEpochs: 1,
		ClipNorm:     5,
		Workers:      2,
		Seed:         3,
	}
	res, err := Pretrain(cfg, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 8*(64/8) {
		t.Fatalf("steps=%d", res.Steps)
	}
	first := res.EpochLoss.Y[0]
	last := res.EpochLoss.Last()
	if !(last < first) {
		t.Fatalf("epoch loss did not decrease: %v → %v", first, last)
	}
	if len(res.LossCurve.X) != res.Steps {
		t.Fatalf("loss curve has %d points for %d steps", len(res.LossCurve.X), res.Steps)
	}
	if res.ImagesPerSec <= 0 {
		t.Fatal("ImagesPerSec not measured")
	}
}

func TestPretrainDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) []float64 {
		cfg := PretrainConfig{
			MAE: tinyMAE(), BatchSize: 8, Epochs: 2, BaseLR: 1.5e-4,
			WeightDecay: 0.05, WarmupEpochs: 1, ClipNorm: 5,
			Workers: workers, Seed: 5,
		}
		res, err := Pretrain(cfg, tinyDataset(32))
		if err != nil {
			t.Fatal(err)
		}
		return res.LossCurve.Y
	}
	a, b := run(1), run(4)
	if len(a) != len(b) {
		t.Fatalf("curve lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("loss curves diverge at step %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestPretrainCapturesNoState: the run Pretrain makes neither
// allocates nor fills a TrainState, which it would throw away, and
// trains PretrainDistributed's trajectory, whose State is complete.
func TestPretrainCapturesNoState(t *testing.T) {
	cfg := PretrainConfig{
		MAE: tinyMAE(), BatchSize: 8, Epochs: 2, BaseLR: 1.5e-4,
		WeightDecay: 0.05, WarmupEpochs: 1, ClipNorm: 5, Workers: 1, Seed: 5,
	}
	dc := DistConfig{PretrainConfig: cfg, Ranks: 1}
	bare, err := pretrainDistributed(dc, tinyDataset(32), false)
	if err != nil {
		t.Fatal(err)
	}
	if bare.State != nil {
		t.Fatalf("Pretrain's run captured a TrainState of %d master values", len(bare.State.Master))
	}
	full, err := PretrainDistributed(dc, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	dim := nn.CountParams(full.Model.Params())
	if st := full.State; st == nil || len(st.Master) != dim || st.Step != full.Steps || st.Epoch != cfg.Epochs {
		t.Fatalf("PretrainDistributed's State is incomplete: %+v", st)
	}
	if i := sameLosses(bare.LossCurve.Y, full.LossCurve.Y); i >= 0 || len(bare.LossCurve.Y) != len(full.LossCurve.Y) {
		t.Fatalf("the runs with and without state capture trained different losses (first difference at step %d)", i)
	}
	if bare.Traffic != full.Traffic {
		t.Fatalf("traffic %+v without state capture, %+v with", bare.Traffic, full.Traffic)
	}
}

// TestPretrainProcsIndependent: the same three steps give the same
// losses and the same parameters, bit for bit, at any GOMAXPROCS. The
// kernels have always been cut-independent; the reported loss was not
// while nn.MSE added its chunk sums in worker-arrival order over chunks
// whose count was the core count (batch 16 gives it 5376 elements — five
// MinGrain chunks — so every worker count below reduced differently).
func TestPretrainProcsIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	cfg := PretrainConfig{
		MAE: tinyMAE(), BatchSize: 16, Epochs: 1, BaseLR: 0.02,
		WeightDecay: 0.05, WarmupEpochs: 1, ClipNorm: 5,
		Workers: 2, Seed: 5, MaxStepsPerEpoch: 3,
	}
	run := func() (losses []float64, params []float32) {
		res, err := Pretrain(cfg, tinyDataset(64))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range res.Model.Params() {
			params = append(params, p.Value...)
		}
		return res.LossCurve.Y, params
	}
	// The expected value is the reference loop's trajectory on one core,
	// so the production path is held to an independent statement of the
	// step at every core count, GOMAXPROCS=1 included.
	runtime.GOMAXPROCS(1)
	wantLoss, wantParams := referencePretrain(t, cfg, tinyDataset(64), nil)
	if len(wantLoss) != 3 {
		t.Fatalf("reference ran %d steps, want 3", len(wantLoss))
	}
	for _, procs := range []int{1, 2, 3, 7} {
		runtime.GOMAXPROCS(procs)
		losses, params := run()
		if len(losses) != 3 {
			t.Fatalf("ran %d steps, want 3", len(losses))
		}
		for i := range wantLoss {
			if math.Float64bits(losses[i]) != math.Float64bits(wantLoss[i]) {
				t.Errorf("GOMAXPROCS=%d: loss at step %d is %v, the reference loop at GOMAXPROCS=1 gave %v", procs, i, losses[i], wantLoss[i])
			}
		}
		for i := range wantParams {
			if math.Float32bits(params[i]) != math.Float32bits(wantParams[i]) {
				t.Fatalf("GOMAXPROCS=%d: parameter element %d differs from the reference loop at GOMAXPROCS=1", procs, i)
			}
		}
	}
}

func TestPretrainValidation(t *testing.T) {
	bad := PretrainConfig{MAE: tinyMAE(), BatchSize: 0, Epochs: 1}
	if _, err := Pretrain(bad, tinyDataset(32)); err == nil {
		t.Fatal("batch size 0 accepted")
	}
	small := PretrainConfig{MAE: tinyMAE(), BatchSize: 64, Epochs: 1}
	if _, err := Pretrain(small, tinyDataset(8)); err == nil {
		t.Fatal("dataset smaller than batch accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*PretrainConfig)
	}{
		{"NaN BaseLR", func(c *PretrainConfig) { c.BaseLR = nan }},
		{"-Inf BaseLR", func(c *PretrainConfig) { c.BaseLR = -inf }},
		{"+Inf BaseLR", func(c *PretrainConfig) { c.BaseLR = inf }},
		{"negative BaseLR", func(c *PretrainConfig) { c.BaseLR = -1e-4 }},
		{"NaN WeightDecay", func(c *PretrainConfig) { c.WeightDecay = nan }},
		{"+Inf WeightDecay", func(c *PretrainConfig) { c.WeightDecay = inf }},
		{"negative WeightDecay", func(c *PretrainConfig) { c.WeightDecay = -0.05 }},
		{"NaN ClipNorm", func(c *PretrainConfig) { c.ClipNorm = nan }},
		{"+Inf ClipNorm", func(c *PretrainConfig) { c.ClipNorm = inf }},
		{"negative ClipNorm", func(c *PretrainConfig) { c.ClipNorm = -1 }},
		{"negative MaxStepsPerEpoch", func(c *PretrainConfig) { c.MaxStepsPerEpoch = -1 }},
		{"negative Workers", func(c *PretrainConfig) { c.Workers = -3 }},
	} {
		cfg := PretrainConfig{MAE: tinyMAE(), BatchSize: 8, Epochs: 1, BaseLR: 1e-4, Workers: 1, Seed: 1, MaxStepsPerEpoch: 1}
		tc.edit(&cfg)
		_, err := Pretrain(cfg, tinyDataset(16))
		if err == nil || !strings.HasPrefix(err.Error(), "train: ") {
			t.Errorf("%s: err = %v, want a train: error", tc.name, err)
		}
	}
}

// TestWorkloadParamsMatchLiveModel: the simulator's unit list prices
// every parameter PretrainDistributed builds — the decoder's final
// LayerNorm and the mask token included — for each analog.
func TestWorkloadParamsMatchLiveModel(t *testing.T) {
	fam, err := vit.AnalogFamily(32, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, enc := range fam {
		cfg := DistConfig{PretrainConfig: PretrainConfig{MAE: mae.Default(enc), BatchSize: 1, Epochs: 1}, Ranks: 1}
		w, err := WorkloadFor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		live := int64(nn.CountParams(mae.New(cfg.MAE, rng.New(1)).Params()))
		if got := w.TotalParams(); got != live {
			t.Errorf("%s: WorkloadFor counts %d parameters, the live model has %d", enc.Name, got, live)
		}
	}
}

func TestPretrainMaxSteps(t *testing.T) {
	cfg := PretrainConfig{
		MAE: tinyMAE(), BatchSize: 8, Epochs: 2, BaseLR: 1e-4,
		WeightDecay: 0, WarmupEpochs: 0, Workers: 1, Seed: 1,
		MaxStepsPerEpoch: 2,
	}
	res, err := Pretrain(cfg, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps != 4 {
		t.Fatalf("steps=%d want 4", res.Steps)
	}
}

func TestPretrainLogs(t *testing.T) {
	var buf bytes.Buffer
	cfg := PretrainConfig{
		MAE: tinyMAE(), BatchSize: 8, Epochs: 1, BaseLR: 1e-4,
		Workers: 1, Seed: 1, Log: &buf, MaxStepsPerEpoch: 1,
	}
	if _, err := Pretrain(cfg, tinyDataset(16)); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no log output")
	}
}

// TestCheckpointRoundTrip: the artifact a run hands on — its TrainState,
// through the file encoding — loaded into a differently initialized
// model gives the trained weights bit for bit: the model's own under
// FP32, the fp32 master the bf16 working weights are the rounding of
// under BF16.
func TestCheckpointRoundTrip(t *testing.T) {
	for _, prec := range []Precision{FP32, BF16} {
		cfg := tinyDistConfig(1, fsdp.DefaultDDP())
		cfg.Epochs = 1
		cfg.Precision = prec
		res := mustPretrainDistributed(t, cfg, 32)
		path := filepath.Join(t.TempDir(), "ck.state")
		if err := SaveTrainStateFile(path, res.State); err != nil {
			t.Fatal(err)
		}
		st, err := LoadTrainStateFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if st.Step != res.Steps {
			t.Fatalf("%s: step=%d, run took %d", prec, st.Step, res.Steps)
		}
		m2 := mae.New(tinyMAE(), rng.New(99)) // different init
		if err := st.LoadInto(m2.Params()); err != nil {
			t.Fatal(err)
		}
		loaded := packedParams(m2)
		if !bitsEqual(loaded, res.State.Master) {
			t.Fatalf("%s: loaded parameters differ from the run's master weights", prec)
		}
		if prec == BF16 {
			tensor.RoundBF16(loaded, loaded)
		}
		if !bitsEqual(loaded, packedParams(res.Model)) {
			t.Fatalf("%s: loaded parameters are not the trained model's", prec)
		}
	}
}

// TestCheckpointRejectsMismatchedModel: a state trained on another
// architecture fails by name and leaves the target model untouched.
func TestCheckpointRejectsMismatchedModel(t *testing.T) {
	m1 := mae.New(tinyMAE(), rng.New(1))
	st := &TrainState{Master: packedParams(m1)}
	other := tinyMAE()
	other.Encoder.Width = 24
	other.Encoder.MLP = 48
	m2 := mae.New(other, rng.New(2))
	before := packedParams(m2)
	err := st.LoadInto(m2.Params())
	if err == nil || !strings.Contains(err.Error(), "wrong architecture") {
		t.Fatalf("mismatched restore: got %v", err)
	}
	if !bitsEqual(packedParams(m2), before) {
		t.Fatal("rejected restore wrote into the model")
	}
}
