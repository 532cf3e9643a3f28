package train

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/fsdp"
	"repro/internal/opt"
)

// TestResumeBitwiseIdentical is the checkpoint acceptance bar: a run
// interrupted at an epoch boundary (StopAfterEpoch), its TrainState
// round-tripped through the gob checkpoint encoding, and resumed in a
// fresh PretrainDistributed must produce the exact final parameters and
// the exact per-step losses of a run that never stopped — for fp32 and
// bf16, replicated and sharded strategies alike. Any drift in the
// master weights, Adam moments, step counter, loss scale, mask stream
// or sampler order fails bit-for-bit.
func TestResumeBitwiseIdentical(t *testing.T) {
	cases := []struct {
		plan fsdp.Plan
		prec Precision
	}{
		{fsdp.DefaultDDP(), FP32},
		{fsdp.BestPractice(fsdp.ShardGradOp, 0), FP32},
		{fsdp.BestPractice(fsdp.FullShard, 0), BF16},
		{fsdp.BestPractice(fsdp.HybridShard, 2), BF16},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s", c.plan.Name(), c.prec), func(t *testing.T) {
			base := tinyDistConfig(4, c.plan)
			base.Epochs = 4
			base.Precision = c.prec

			ref, err := PretrainDistributed(base, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}

			// Leg A: same configuration, interrupted after 2 epochs.
			legA := base
			legA.StopAfterEpoch = 2
			a, err := PretrainDistributed(legA, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}
			if a.State.Epoch != 2 || a.State.Step != ref.State.Step/2 {
				t.Fatalf("leg A state: epoch %d step %d", a.State.Epoch, a.State.Step)
			}
			// Its loss curve must be the first half of the reference's.
			for i := range a.LossCurve.Y {
				if a.LossCurve.Y[i] != ref.LossCurve.Y[i] {
					t.Fatalf("leg A loss differs at step %d", i)
				}
			}

			// The state survives the on-disk encoding bit-for-bit.
			var buf bytes.Buffer
			if err := SaveTrainState(&buf, a.State); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadTrainState(&buf)
			if err != nil {
				t.Fatal(err)
			}

			// Leg B: resume the remaining 2 epochs.
			legB := base
			legB.Resume = restored
			b, err := PretrainDistributed(legB, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}
			if b.Steps != ref.Steps-a.Steps {
				t.Fatalf("leg B ran %d steps, want %d", b.Steps, ref.Steps-a.Steps)
			}
			// No init broadcast on resume.
			if b.Comm.Broadcast.Calls != 0 {
				t.Errorf("resumed run broadcast %d times", b.Comm.Broadcast.Calls)
			}
			// Its loss curve is the second half of the reference's,
			// bitwise, at the right absolute step indices.
			half := len(ref.LossCurve.Y) / 2
			for i := range b.LossCurve.Y {
				if b.LossCurve.Y[i] != ref.LossCurve.Y[half+i] {
					t.Fatalf("resumed loss differs at step %d: %v vs %v",
						half+i, b.LossCurve.Y[i], ref.LossCurve.Y[half+i])
				}
				if b.LossCurve.X[i] != ref.LossCurve.X[half+i] {
					t.Fatalf("resumed curve indexed at %v, want %v", b.LossCurve.X[i], ref.LossCurve.X[half+i])
				}
			}
			// Final parameters identical to the uninterrupted run's.
			dim := opt.FlatDim(ref.Model.Params())
			want := make([]float32, dim)
			got := make([]float32, dim)
			opt.PackValues(want, ref.Model.Params())
			opt.PackValues(got, b.Model.Params())
			for j := range want {
				if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
					t.Fatalf("resumed parameters differ at flat element %d: %v vs %v", j, got[j], want[j])
				}
			}
			// And the final states agree too (master + moments), so a
			// second resume would also continue identically.
			for j := range ref.State.Master {
				if math.Float32bits(b.State.Master[j]) != math.Float32bits(ref.State.Master[j]) ||
					math.Float32bits(b.State.OptM[j]) != math.Float32bits(ref.State.OptM[j]) ||
					math.Float32bits(b.State.OptV[j]) != math.Float32bits(ref.State.OptV[j]) {
					t.Fatalf("resumed train state differs at flat element %d", j)
				}
			}
			if b.State.OptStep != ref.State.OptStep || b.State.Step != ref.State.Step {
				t.Fatalf("state counters: %d/%d vs %d/%d",
					b.State.OptStep, b.State.Step, ref.State.OptStep, ref.State.Step)
			}
			if c.prec == BF16 && b.State.LossScale != ref.State.LossScale {
				t.Fatalf("loss scale diverged: %v vs %v", b.State.LossScale, ref.State.LossScale)
			}
		})
	}
}

// TestTrainStateFileRoundTrip exercises the file-backed checkpoint
// path: save to disk, load, resume — the workflow cmd/pretrain wires
// up.
func TestTrainStateFileRoundTrip(t *testing.T) {
	cfg := tinyDistConfig(2, fsdp.DefaultDDP())
	cfg.Epochs = 2
	cfg.StopAfterEpoch = 1
	res, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.gob")
	if err := SaveTrainStateFile(path, res.State); err != nil {
		t.Fatal(err)
	}
	st, err := LoadTrainStateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != res.State.Epoch || st.Step != res.State.Step || st.OptStep != res.State.OptStep {
		t.Fatalf("counters drifted through the file: %+v", st)
	}
	for i := range res.State.Master {
		if math.Float32bits(st.Master[i]) != math.Float32bits(res.State.Master[i]) {
			t.Fatalf("master differs at %d after file round trip", i)
		}
	}
	cfg.StopAfterEpoch = 0
	cfg.Resume = st
	if _, err := PretrainDistributed(cfg, tinyDataset(32)); err != nil {
		t.Fatal(err)
	}
}

// TestTrainStateRejectsGarbage: malformed streams and mismatched
// shapes fail fast instead of resuming silently wrong.
func TestTrainStateRejectsGarbage(t *testing.T) {
	if _, err := LoadTrainState(bytes.NewReader([]byte("not a train state"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Moments not matching the master length.
	var buf bytes.Buffer
	bad := &TrainState{Master: make([]float32, 4), OptM: make([]float32, 2), OptV: make([]float32, 4)}
	if err := SaveTrainState(&buf, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadTrainState(&buf); err == nil {
		t.Fatal("mismatched moments accepted")
	}
}

// TestTrainStateCorruptionDetected: the checksummed envelope turns the
// two silent on-disk failure modes — truncation and bit flips — into
// clean LoadTrainState errors. (The atomic temp-file rename already
// prevents truncation by crash; this covers the storage layer.)
func TestTrainStateCorruptionDetected(t *testing.T) {
	cfg := tinyDistConfig(2, fsdp.DefaultDDP())
	cfg.Epochs = 2
	cfg.StopAfterEpoch = 1
	res, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "state.gob")
	if err := SaveTrainStateFile(path, res.State); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Truncation at any depth — mid-envelope and mid-payload.
	for _, keep := range []int{1, len(blob) / 4, len(blob) - 1} {
		if _, err := LoadTrainState(bytes.NewReader(blob[:keep])); err == nil {
			t.Errorf("state truncated to %d/%d bytes accepted", keep, len(blob))
		}
	}

	// A single flipped bit deep in the tensor payload. Without the
	// checksum gob would decode this into silently wrong weights; the
	// envelope must reject it, naming the corruption.
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x10
	_, err = LoadTrainState(bytes.NewReader(flipped))
	if err == nil {
		t.Fatal("bit-flipped state accepted")
	}
	if !strings.Contains(err.Error(), "corrupt") && !strings.Contains(err.Error(), "checksum") &&
		!strings.Contains(err.Error(), "decoding") {
		t.Errorf("corruption error does not explain itself: %v", err)
	}

	// The pristine file still loads.
	if _, err := LoadTrainState(bytes.NewReader(blob)); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
}

// TestResumeValidation: resume states that cannot continue this
// configuration are rejected before any rank spawns (or at rank init
// for shape mismatches).
func TestResumeValidation(t *testing.T) {
	cfg := tinyDistConfig(2, fsdp.DefaultDDP())
	cfg.Epochs = 2
	cfg.StopAfterEpoch = 1
	res, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	st := res.State

	// Epoch beyond the schedule.
	c := cfg
	c.StopAfterEpoch = 0
	c.Epochs = 1
	c.Resume = st
	if _, err := PretrainDistributed(c, tinyDataset(32)); err == nil {
		t.Error("resume past the final epoch accepted")
	}
	// Step count inconsistent with the schedule.
	c = cfg
	c.StopAfterEpoch = 0
	broken := *st
	broken.Step++
	c.Resume = &broken
	if _, err := PretrainDistributed(c, tinyDataset(32)); err == nil {
		t.Error("resume with mismatched step count accepted")
	}
	// Wrong model size.
	c = cfg
	c.StopAfterEpoch = 0
	short := *st
	short.Master = short.Master[:10]
	short.OptM = short.OptM[:10]
	short.OptV = short.OptV[:10]
	c.Resume = &short
	if _, err := PretrainDistributed(c, tinyDataset(32)); err == nil {
		t.Error("resume with wrong parameter count accepted")
	}
	// Malformed states — moments shorter than the master, a negative
	// optimizer step, accumulation window or loss-scaler counter, a BF16
	// state without a usable loss scale, a non-finite tensor or a
	// negative second moment (the float32 AdamW kernel takes its root) —
	// are named train: errors from the preamble, not a rank's
	// slice-bounds or NaN failure, and the same error from every door a
	// state comes in by: DistConfig.Resume and LoadTrainState.
	poked := func(x []float32, v float64) []float32 {
		cp := append([]float32(nil), x...)
		cp[len(cp)/2] = float32(v)
		return cp
	}
	for _, bad := range []struct {
		name, want string
		prec       Precision
		corrupt    func(*TrainState)
	}{
		{"short OptM", "do not match master", FP32, func(b *TrainState) { b.OptM = make([]float32, 10) }},
		{"short OptV", "do not match master", FP32, func(b *TrainState) { b.OptV = make([]float32, 10) }},
		{"negative OptStep", "negative optimizer step", FP32, func(b *TrainState) { b.OptStep = -1 }},
		{"negative AccumSteps", "negative AccumSteps", FP32, func(b *TrainState) { b.AccumSteps = -1 }},
		{"negative ScaleGoodSteps", "negative ScaleGoodSteps", BF16, func(b *TrainState) { b.ScaleGoodSteps = -3 }},
		{"zero LossScale", "loss scale", BF16, func(b *TrainState) { b.LossScale = 0 }},
		{"infinite LossScale", "loss scale", BF16, func(b *TrainState) { b.LossScale = math.Inf(1) }},
		{"NaN LossScale", "loss scale", BF16, func(b *TrainState) { b.LossScale = math.NaN() }},
		{"NaN Master", "Master holds a non-finite", FP32, func(b *TrainState) { b.Master = poked(b.Master, math.NaN()) }},
		{"infinite OptM", "OptM holds a non-finite", FP32, func(b *TrainState) { b.OptM = poked(b.OptM, math.Inf(-1)) }},
		{"infinite OptV", "OptV holds a non-finite", BF16, func(b *TrainState) { b.OptV = poked(b.OptV, math.Inf(1)) }},
		{"negative OptV", "is negative", FP32, func(b *TrainState) { b.OptV = poked(b.OptV, -1e-12) }},
	} {
		b := *st
		b.Precision = bad.prec
		b.LossScale = opt.DefaultLossScale
		bad.corrupt(&b)
		c = cfg
		c.StopAfterEpoch = 0
		c.Precision = bad.prec
		c.Resume = &b
		_, err := PretrainDistributed(c, tinyDataset(32))
		var file bytes.Buffer
		if err := SaveTrainState(&file, &b); err != nil {
			t.Fatal(err)
		}
		_, loadErr := LoadTrainState(&file)
		for door, err := range map[string]error{"Resume": err, "LoadTrainState": loadErr} {
			if err == nil || !strings.HasPrefix(err.Error(), "train: ") || !strings.Contains(err.Error(), bad.want) {
				t.Errorf("%s via %s: err = %v, want a train: error naming %q", bad.name, door, err, bad.want)
			}
		}
	}
	// Precision mismatch: an FP32 state carries no loss-scale schedule,
	// so resuming it under BF16 must fail fast rather than train with a
	// zero scale.
	c = cfg
	c.StopAfterEpoch = 0
	c.Precision = BF16
	c.Resume = st // captured under FP32
	if _, err := PretrainDistributed(c, tinyDataset(32)); err == nil {
		t.Error("FP32-captured state accepted under BF16")
	}
	// Accumulation-window mismatch: Step counts optimizer steps, so the
	// mask fast-forward consumes Step×AccumSteps micro-batches — a
	// different window must fail fast, not resume on a misaligned mask
	// stream. (MaxStepsPerEpoch pins stepsPerEpoch so the Step check
	// alone cannot catch it.)
	c = cfg
	c.StopAfterEpoch = 0
	c.MaxStepsPerEpoch = 1
	c.AccumSteps = 2
	mismatch := *st
	mismatch.Step = 1 // consistent with 1 step/epoch × 1 epoch
	c.Resume = &mismatch
	if _, err := PretrainDistributed(c, tinyDataset(32)); err == nil {
		t.Error("state captured without accumulation accepted under AccumSteps=2")
	}
	// And a pre-accumulation state (AccumSteps zero value) resumes an
	// unaccumulated run.
	if st.AccumSteps != 1 {
		t.Errorf("captured state AccumSteps = %d, want 1", st.AccumSteps)
	}
}

// captureDDP2 runs the 2-rank DDP configuration every cross-topology
// test continues — uninterrupted, and stopped at its epoch-2 boundary —
// and returns both results.
func captureDDP2(t *testing.T) (cfg DistConfig, full, half *DistResult) {
	t.Helper()
	cfg = tinyDistConfig(2, fsdp.DefaultDDP())
	cfg.Epochs = 4
	full, err := PretrainDistributed(cfg, tinyDataset(32))
	if err != nil {
		t.Fatal(err)
	}
	legA := cfg
	legA.StopAfterEpoch = 2
	if half, err = PretrainDistributed(legA, tinyDataset(32)); err != nil {
		t.Fatal(err)
	}
	return cfg, full, half
}

// checkContinuation holds a resumed leg to the second half of the
// uninterrupted run's loss curve, at the same absolute steps, within
// the strategy matrix's tolerance.
func checkContinuation(t *testing.T, b, full *DistResult) {
	t.Helper()
	half := len(full.LossCurve.Y) / 2
	if len(b.LossCurve.Y) != len(full.LossCurve.Y)-half {
		t.Fatalf("resumed leg logged %d losses, want %d", len(b.LossCurve.Y), len(full.LossCurve.Y)-half)
	}
	for i := range b.LossCurve.Y {
		if b.LossCurve.X[i] != full.LossCurve.X[half+i] {
			t.Fatalf("resumed curve indexed at %v, want %v", b.LossCurve.X[i], full.LossCurve.X[half+i])
		}
		if !relClose(b.LossCurve.Y[i], full.LossCurve.Y[half+i], 1e-4) {
			t.Fatalf("resumed loss at step %v: %v, uninterrupted %v",
				b.LossCurve.X[i], b.LossCurve.Y[i], full.LossCurve.Y[half+i])
		}
	}
	if b.State.Step != full.State.Step || b.State.OptStep != full.State.OptStep {
		t.Fatalf("resumed leg ended at step %d/%d, want %d/%d",
			b.State.Step, b.State.OptStep, full.State.Step, full.State.OptStep)
	}
}

// TestResumeAnyTopology: a checkpoint is canonical flat state, so a
// state captured at world 2 under DDP resumes as it is at a larger
// world, under another plan and on one rank. Each continuation trains
// the uninterrupted 2-rank run's remaining steps within the strategy
// matrix's tolerance (only the ring reduction order differs).
func TestResumeAnyTopology(t *testing.T) {
	cfg, full, a := captureDDP2(t)
	for _, c := range []struct {
		ranks int
		plan  fsdp.Plan
	}{
		{4, fsdp.DefaultDDP()},
		{2, fsdp.BestPractice(fsdp.FullShard, 0)},
		{1, fsdp.Plan{}},
	} {
		t.Run(fmt.Sprintf("%s/world=%d", c.plan.Name(), c.ranks), func(t *testing.T) {
			legB := cfg
			legB.Ranks, legB.Plan, legB.Resume = c.ranks, c.plan, a.State
			b, err := PretrainDistributed(legB, tinyDataset(32))
			if err != nil {
				t.Fatal(err)
			}
			checkContinuation(t, b, full)
		})
	}
}

// legacyTrainState is TrainState as it was when checkpoints still
// stamped the World and Strategy they were captured under.
type legacyTrainState struct {
	Format             string
	Step, Epoch        int
	Precision          Precision
	AccumSteps         int
	World              int
	Strategy           string
	Master, OptM, OptV []float32
	OptStep            int
	LossScale          float64
	ScaleGoodSteps     int
}

// TestStampedCheckpointLoads: a geofm-trainstate-v2 file written while
// states carried topology stamps still loads — gob skips the fields the
// state no longer has — to the same state, and resumes at another world.
func TestStampedCheckpointLoads(t *testing.T) {
	cfg, full, a := captureDDP2(t)
	st := a.State
	old := legacyTrainState{
		Format: trainStateFormat, Step: st.Step, Epoch: st.Epoch, Precision: st.Precision,
		AccumSteps: st.AccumSteps, World: 2, Strategy: "DDP",
		Master: st.Master, OptM: st.OptM, OptV: st.OptV, OptStep: st.OptStep,
		LossScale: st.LossScale, ScaleGoodSteps: st.ScaleGoodSteps,
	}
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(old); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrainState(bytes.NewReader(envelopeAround(t, body.Bytes())))
	if err != nil {
		t.Fatalf("stamped checkpoint rejected: %v", err)
	}
	if loaded.Step != st.Step || loaded.Epoch != st.Epoch || loaded.OptStep != st.OptStep ||
		loaded.AccumSteps != st.AccumSteps || loaded.Precision != st.Precision ||
		!bitsEqual(loaded.Master, st.Master) || !bitsEqual(loaded.OptM, st.OptM) || !bitsEqual(loaded.OptV, st.OptV) {
		t.Fatalf("stamped checkpoint loaded as a different state: step %d epoch %d (want %d/%d)",
			loaded.Step, loaded.Epoch, st.Step, st.Epoch)
	}
	legB := cfg
	legB.Ranks, legB.Resume = 4, loaded
	b, err := PretrainDistributed(legB, tinyDataset(32))
	if err != nil {
		t.Fatalf("stamped world-2 checkpoint did not resume at world 4: %v", err)
	}
	checkContinuation(t, b, full)
}

// TestResumeWithWorkersBitwise is the PR 4 fast-forward audit's
// regression: resuming mid-run with 4 loader workers per rank (the
// paper's configuration) — here additionally under overlap and a
// 2-micro-step accumulation window — must be bitwise identical to the
// uninterrupted run. The hazards this pins down: dataload.SkipEpochs
// must reproduce the skipped epochs' shuffle draws exactly, and no
// reused batch may be delivered while a worker or the previous loop
// body still holds it (run under -race in CI, which would flag the
// overlapping writes).
func TestResumeWithWorkersBitwise(t *testing.T) {
	base := tinyDistConfig(4, fsdp.BestPractice(fsdp.HybridShard, 2))
	base.Epochs = 4
	base.Workers = 4
	base.Overlap = true
	base.AccumSteps = 2

	ref, err := PretrainDistributed(base, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	legA := base
	legA.StopAfterEpoch = 2
	a, err := PretrainDistributed(legA, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveTrainState(&buf, a.State); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadTrainState(&buf)
	if err != nil {
		t.Fatal(err)
	}
	legB := base
	legB.Resume = restored
	b, err := PretrainDistributed(legB, tinyDataset(64))
	if err != nil {
		t.Fatal(err)
	}
	half := len(ref.LossCurve.Y) / 2
	for i := range b.LossCurve.Y {
		if math.Float64bits(b.LossCurve.Y[i]) != math.Float64bits(ref.LossCurve.Y[half+i]) {
			t.Fatalf("resumed loss differs at step %d: %v vs %v",
				half+i, b.LossCurve.Y[i], ref.LossCurve.Y[half+i])
		}
	}
	dim := opt.FlatDim(ref.Model.Params())
	want := make([]float32, dim)
	got := make([]float32, dim)
	opt.PackValues(want, ref.Model.Params())
	opt.PackValues(got, b.Model.Params())
	for j := range want {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("resumed parameters differ at flat element %d", j)
		}
	}
}
