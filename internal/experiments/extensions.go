package experiments

import (
	"fmt"
	"io"

	"repro/internal/geodata"
	"repro/internal/probe"
	"repro/internal/train"
	"repro/internal/vit"
)

// ExtensionResult carries the Section VI "envisioned next steps"
// artifacts: few-shot curves, a segmentation probe, and a fine-tuning
// versus linear-probing comparison, all from one pretrained encoder.
type ExtensionResult struct {
	Model     string
	FewShot   []*probe.Result
	Shots     []int
	Seg       *probe.SegResult
	Probe     *probe.Result
	FineTune  *probe.FineTuneResult
	ChancePct float64
}

// RunExtensions pretrains one analog encoder and evaluates the three
// extension tasks on the UCM analog.
func RunExtensions(s Scale, logw io.Writer) (*ExtensionResult, error) {
	enc, err := vit.Analog("ViT-1B", s.ImageSize, s.PatchSize, s.Channels)
	if err != nil {
		return nil, err
	}
	suite := geodata.NewSuite(s.SuiteScale, s.ImageSize, s.Channels, s.Seed)
	ucm := suite.Probe[1]

	pr, err := train.Pretrain(s.PretrainConfig(enc, logw), suite.Pretrain)
	if err != nil {
		return nil, err
	}

	res := &ExtensionResult{
		Model:     enc.Name,
		ChancePct: 100.0 / float64(ucm.Classes()),
	}
	// Keep only shot counts the scaled train split can satisfy.
	for _, k := range []int{1, 2, 5} {
		if k*ucm.Classes() <= ucm.TrainCount {
			res.Shots = append(res.Shots, k)
		}
	}

	pc := s.ProbeConfig(s.Seed)
	res.FewShot, err = probe.ShotSweep(pc, pr.Model.Features, enc.Width, ucm, res.Shots)
	if err != nil {
		return nil, fmt.Errorf("few-shot: %w", err)
	}
	_, res.Probe, err = probe.FitHead(pc, pr.Model.Features, enc.Width, ucm)
	if err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}

	sc := probe.Config{Epochs: max(s.ProbeEpochs/2, 1), BatchSize: s.BatchSize, BaseLR: 0.1, Seed: s.Seed}
	_, res.Seg, err = probe.FitSegHead(sc, pr.Model.TokenFeatures, enc.Width, ucm, s.PatchSize)
	if err != nil {
		return nil, fmt.Errorf("segmentation: %w", err)
	}

	ft := probe.FineTuneConfig{Epochs: s.PretrainEpochs / 3, BatchSize: s.BatchSize,
		BaseLR: 0.02, WeightDecay: 0.05, Seed: s.Seed}
	if ft.Epochs < 1 {
		ft.Epochs = 1
	}
	res.FineTune, err = probe.FineTune(ft, pr.Model, ucm)
	if err != nil {
		return nil, fmt.Errorf("fine-tune: %w", err)
	}
	return res, nil
}

// ExtensionTable renders the Section VI artifacts.
func (r *ExtensionResult) ExtensionTable() Table {
	t := Table{
		Title:  fmt.Sprintf("Section VI extensions — %s on UCM analog", r.Model),
		Header: []string{"Task", "Metric", "Value"},
	}
	for i, k := range r.Shots {
		t.AddRow(fmt.Sprintf("few-shot (k=%d)", k), "top-1 %", pct(r.FewShot[i].FinalTop1))
	}
	t.AddRow("linear probe (full split)", "top-1 %", pct(r.Probe.FinalTop1))
	t.AddRow("fine-tune (full split)", "top-1 %", pct(r.FineTune.FinalTop1))
	t.AddRow("segmentation probe", "patch acc %", pct(r.Seg.PatchAccuracy))
	t.AddRow("segmentation probe", "mean IoU", f2(r.Seg.MeanIoU))
	t.AddNote("chance top-1 is %.2f%%; segmentation classes: background/structure/grid.", r.ChancePct)
	return t
}
