package geofm

import (
	"strings"
	"testing"
)

func TestFacadeReExports(t *testing.T) {
	if len(TableI) != 6 {
		t.Fatalf("TableI has %d entries", len(TableI))
	}
	c, err := ModelByName("ViT-5B")
	if err != nil || c.Width != 1792 {
		t.Fatalf("ModelByName: %+v %v", c, err)
	}
}

func TestEndToEndTinyPipeline(t *testing.T) {
	// Smoke test of the documented user journey through the facade
	// only: build analog, pretrain briefly, probe.
	enc, err := Analog("ViT-Base", 16, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	suite := NewSuite(200, 16, 3, 7)

	cfg := DefaultPretrain(DefaultMAE(enc))
	cfg.Epochs = 2
	cfg.MaxStepsPerEpoch = 3
	cfg.BatchSize = 8
	cfg.Workers = 2
	res, err := Pretrain(cfg, suite.Pretrain)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LossCurve.Y) != 6 {
		t.Fatalf("loss curve %d points", len(res.LossCurve.Y))
	}

	pc := DefaultProbe(16)
	pc.Epochs = 3
	_, pr, err := LinearProbe(pc, res.Model.Features, enc.Width, suite.Probe[1]) // UCM
	if err != nil {
		t.Fatal(err)
	}
	if pr.FinalTop1 < 0 || pr.FinalTop1 > 1 {
		t.Fatalf("top1 %v", pr.FinalTop1)
	}
}

func TestSimulateThroughFacade(t *testing.T) {
	r, err := Simulate(ViTWorkload(ViT5B, 32), Frontier(), 8, BestPractice(HybridShard, 8))
	if err != nil {
		t.Fatal(err)
	}
	if r.ImagesPerSec <= 0 {
		t.Fatal("no throughput")
	}
}

func TestAdviseMatchesPaperGuide(t *testing.T) {
	cases := []struct {
		cfg      ViTConfig
		nodes    int
		wantName string
	}{
		{ViTBase, 64, "HYBRID_1GPU"},
		{ViT3B, 64, "HYBRID_1GPU"},
		{ViT5B, 32, "HYBRID_8GPUs"},
		{ViT15B, 64, "SHARD_GRAD_OP"},
	}
	for _, c := range cases {
		plan, why := Advise(c.cfg, c.nodes)
		if plan.Name() != c.wantName {
			t.Errorf("Advise(%s, %d) = %s, want %s", c.cfg.Name, c.nodes, plan.Name(), c.wantName)
		}
		if !strings.Contains(why, c.cfg.Name) {
			t.Errorf("rationale does not mention the model: %q", why)
		}
		if !plan.LimitAllGathers || plan.Prefetch != BackwardPre {
			t.Errorf("Advise(%s) did not apply Section IV-E best practices", c.cfg.Name)
		}
	}
}

func TestAdviseSingleNode5B(t *testing.T) {
	plan, _ := Advise(ViT5B, 1)
	if plan.Strategy != HybridShard || plan.GroupSize < 2 {
		t.Fatalf("single-node 5B advice: %+v", plan)
	}
}

func TestMAEPerfWorkloadFacade(t *testing.T) {
	w := MAEPerfWorkload(ViT3B, 32, 0.75)
	if !w.MAE || w.EncoderTokens >= ViT3B.Tokens() {
		t.Fatalf("MAE workload wrong: %+v", w)
	}
}
