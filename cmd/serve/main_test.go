package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/geodata"
	"repro/internal/mae"
	"repro/internal/opt"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/train"
	"repro/internal/vit"
)

// tinyServeOptions is a complete serving session small enough to run
// in milliseconds: a 2-layer encoder, a scale-1000 UCM analog for the
// heads, two open-loop rates and a closed-loop tail.
func tinyServeOptions() options {
	enc := vit.Config{Name: "tiny", Width: 16, Depth: 2, MLP: 32, Heads: 2,
		PatchSize: 4, ImageSize: 12, Channels: 2}
	return options{
		mae: mae.Config{Encoder: enc,
			DecoderWidth: 8, DecoderDepth: 1, DecoderHeads: 2, MaskRatio: 0.75},
		mode:   "virtual",
		rates:  []float64{500, 1500},
		n:      40,
		cfg:    serve.Config{MaxBatch: 4, MaxWaitSec: 2e-3, QueueCap: 32, Workers: 1},
		closed: true,
		loop:   serve.ClosedLoop{Clients: 2, PerClient: 5, ThinkSec: 1e-3},
		scale:  1000,
		epochs: 2,
		seed:   1,
	}
}

// tableOf extracts the report table (header row onward) from a serving
// session's output. Only the table is golden-pinned: it is pure
// discrete-event float64 timing, identical on every platform, while
// the preamble's head accuracies ride on fp32 kernel code paths.
func tableOf(t *testing.T, out string) string {
	t.Helper()
	idx := strings.Index(out, "run ")
	if idx < 0 || (idx > 0 && out[idx-1] != '\n') {
		t.Fatalf("no report table in output:\n%s", out)
	}
	return out[idx:]
}

// TestServeTableGolden pins the whole deterministic serving session
// byte for byte: fixed seed + virtual clock + the simulator-priced
// latency curve must reproduce this exact p50/p99/throughput table on
// any host. Any drift in the batcher policy, the latency model, the
// load generator, or the table format fails here.
func TestServeTableGolden(t *testing.T) {
	var b strings.Builder
	if err := run(tinyServeOptions(), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"serving tiny with seed-1 weights (no checkpoint)",
		"heads fitted on UCM",
		"batch latency curve: launch ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	const golden = `run                     total served  shed  batch     rps   q_p50ms   q_p99ms   t_p50ms   t_p99ms  util
virtual-rate500            40     40     0   1.90   478.0     1.614     2.000     1.917     2.303  0.08
virtual-rate1500           40     40     0   3.08  1394.4     0.538     2.000     0.842     2.303  0.14
closed-2x5                 10     10     0   2.00   644.8     2.000     2.000     2.302     2.302  0.10
`
	if got := tableOf(t, out); got != golden {
		t.Errorf("serving table drifted from golden.\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestServeTableDeterministic reruns the identical session and demands
// byte-identical full output (preamble included) — the virtual mode's
// whole point.
func TestServeTableDeterministic(t *testing.T) {
	var a, b strings.Builder
	if err := run(tinyServeOptions(), &a); err != nil {
		t.Fatal(err)
	}
	if err := run(tinyServeOptions(), &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("two identical virtual sessions diverged:\n--- first ---\n%s--- second ---\n%s",
			a.String(), b.String())
	}
}

// TestServeWallMode smoke-tests the real goroutine server behind the
// same session driver (numbers carry host noise, so only structure is
// asserted).
func TestServeWallMode(t *testing.T) {
	o := tinyServeOptions()
	o.mode = "wall"
	o.rates = []float64{3000}
	o.n = 12
	o.closed = false
	var b strings.Builder
	if err := run(o, &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	table := tableOf(t, out)
	if !strings.Contains(table, "wall-rate3000") {
		t.Errorf("wall run missing from table:\n%s", out)
	}
	if !strings.Contains(table, "    12     12     0") {
		t.Errorf("wall run did not serve all 12 requests:\n%s", table)
	}
}

// TestServeFromCheckpoint round-trips the one on-disk format through
// -ckpt: the TrainState of a real 1-rank pretraining run must serve
// the session the trained model itself serves from memory — head
// accuracies and table alike — and a file that is not that fails with
// LoadTrainState's own diagnosis, not a guess about formats.
func TestServeFromCheckpoint(t *testing.T) {
	o := tinyServeOptions()
	o.rates = []float64{1500}
	o.n = 20
	o.closed = false

	pcfg := train.DefaultPretrain(o.mae)
	pcfg.Epochs, pcfg.MaxStepsPerEpoch, pcfg.BatchSize, pcfg.Workers, pcfg.BaseLR = 2, 2, 8, 2, 0.02
	enc := o.mae.Encoder
	trained, err := train.PretrainDistributed(train.DistConfig{PretrainConfig: pcfg, Ranks: 1},
		geodata.NewSuite(o.scale, enc.ImageSize, enc.Channels, o.seed).Pretrain)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if err := session(o, &serve.Model{MAE: trained.Model}, &want); err != nil {
		t.Fatal(err)
	}

	path := t.TempDir() + "/run.state"
	if err := train.SaveTrainStateFile(path, trained.State); err != nil {
		t.Fatal(err)
	}
	o.ckpt = path
	var got strings.Builder
	if err := run(o, &got); err != nil {
		t.Fatal(err)
	}
	preamble, rest, _ := strings.Cut(got.String(), "\n")
	if !strings.Contains(preamble, "(step 4)") {
		t.Errorf("checkpoint preamble missing the run's step count: %q", preamble)
	}
	if rest != want.String() {
		t.Errorf("checkpoint session diverged from the trained model served from memory:\n--- got ---\n%s--- want ---\n%s",
			rest, want.String())
	}

	// The three ways a file can be wrong, each by its own name.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10 // inside a tensor: the header is 75 bytes
	flipped := t.TempDir() + "/flipped.state"
	garbage := t.TempDir() + "/garbage.state"
	for file, content := range map[string][]byte{flipped: raw, garbage: []byte("not a checkpoint")} {
		if err := os.WriteFile(file, content, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wider := o
	wider.mae.Encoder.Width, wider.mae.Encoder.MLP = 24, 48
	for _, c := range []struct {
		name, ckpt, want string
		o                options
	}{
		{"one tensor byte flipped", flipped, "checksum mismatch", o},
		{"another architecture", path, "wrong architecture", wider},
		{"not a checkpoint", garbage, "not a train-state file", o},
	} {
		c.o.ckpt = c.ckpt
		if err := run(c.o, &strings.Builder{}); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error naming %q", c.name, err, c.want)
		}
	}
}

// checkpointBytes is the on-disk TrainState of a freshly initialized
// model of cfg: its weights as the fp32 master, zero Adam moments.
func checkpointBytes(t testing.TB, cfg mae.Config) []byte {
	params := mae.New(cfg, rng.New(1)).Params()
	n := opt.FlatDim(params)
	st := &train.TrainState{Master: make([]float32, n), OptM: make([]float32, n), OptV: make([]float32, n)}
	opt.PackValues(st.Master, params)
	var b bytes.Buffer
	if err := train.SaveTrainState(&b, st); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// FuzzServeCheckpoint writes arbitrary bytes as the -ckpt file: loading
// must return a model or an error, never panic and never both.
func FuzzServeCheckpoint(f *testing.F) {
	o := tinyServeOptions()
	valid := checkpointBytes(f, o.mae)
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/2] ^= 0x10
	wider := o.mae
	wider.Encoder.Width, wider.Encoder.MLP = 24, 48
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(flipped)
	f.Add(checkpointBytes(f, wider))
	f.Fuzz(func(t *testing.T, raw []byte) {
		o := tinyServeOptions()
		o.ckpt = filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(o.ckpt, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		m, origin, err := loadModel(o)
		if (m == nil) == (err == nil) {
			t.Fatalf("loadModel returned model %v and error %v", m != nil, err)
		}
		if err == nil && !strings.Contains(origin, "(step ") {
			t.Errorf("origin line does not name the checkpoint's step: %q", origin)
		}
	})
}

// TestServeBadMode pins the fail-fast on an unknown -mode (and on an
// unusable batcher setting, arrival rate, request count, closed-loop
// client count, think time, dataset scale or model geometry):
// the error comes before any work, so nothing is printed.
func TestServeBadMode(t *testing.T) {
	badMode, nanWait := tinyServeOptions(), tinyServeOptions()
	badMode.mode = "batch"
	nanWait.cfg.MaxWaitSec = math.NaN()
	nanRate, infRate, nanThink, negThink := tinyServeOptions(), tinyServeOptions(), tinyServeOptions(), tinyServeOptions()
	nanRate.rates = []float64{500, math.NaN()}
	infRate.rates = []float64{math.Inf(1)}
	nanThink.loop.ThinkSec = math.NaN()
	negThink.loop.ThinkSec = -1e-3
	oneToken := tinyServeOptions()
	oneToken.mae.Encoder.PatchSize = oneToken.mae.Encoder.ImageSize
	zeroN, negN, noClients, negPerClient := tinyServeOptions(), tinyServeOptions(), tinyServeOptions(), tinyServeOptions()
	zeroN.n = 0
	negN.n = -5
	noClients.loop.Clients = 0
	negPerClient.loop.PerClient = -1
	zeroScale, negScale := tinyServeOptions(), tinyServeOptions()
	zeroScale.scale = 0
	negScale.scale = -2
	for _, c := range []struct {
		o    options
		want string
	}{
		{badMode, `unknown -mode "batch"`},
		{nanWait, "serve: MaxWaitSec NaN"},
		{nanRate, "bad arrival rate NaN"},
		{infRate, "bad arrival rate +Inf"},
		{nanThink, "bad -think NaN"},
		{negThink, "bad -think -0.001"},
		{oneToken, "mae: 1 patch token"},
		{zeroN, "bad -n 0"},
		{negN, "bad -n -5"},
		{noClients, "bad closed loop -clients 0"},
		{negPerClient, "-per-client -1"},
		{zeroScale, "bad -scale 0"},
		{negScale, "bad -scale -2"},
	} {
		var b strings.Builder
		if err := run(c.o, &b); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("got %v, want an error naming %q", err, c.want)
		}
		if b.Len() != 0 {
			t.Errorf("%q: output written before failing:\n%s", c.want, b.String())
		}
	}
}

// TestParseRates pins the -rates vocabulary.
func TestParseRates(t *testing.T) {
	got, err := parseRates("500, 1000,2e3")
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{500, 1000, 2000}
	if len(got) != len(want) {
		t.Fatalf("parseRates: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("parseRates: got %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", ",,", "0", "-5", "500,x", "NaN", "500,nan", "Inf", "+Inf", "1e400"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q): expected an error", bad)
		}
	}
}
