package calib

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fsdp"
	"repro/internal/hw"
	"repro/internal/perfmodel"
	"repro/internal/vit"
)

// testProfile is a deterministic synthetic profile: unit tests must
// stay hermetic, so nothing here is measured.
func testProfile() *HardwareProfile {
	p := &HardwareProfile{
		Host:        hw.Features{Arch: "amd64", OS: "linux", LogicalCores: 8, MaxProcs: 8},
		Ranks:       4,
		CreatedUnix: 1754600000,
		GEMM: Roofline{Points: []GEMMPoint{
			{16, 16, 16, 2.0}, {64, 64, 64, 8.0}, {128, 128, 128, 14.0},
			{256, 256, 256, 20.0}, {512, 512, 512, 22.0},
		}},
		Stream:     StreamResult{Elems: 1 << 22, CopyBW: 21e9, ScaleBW: 19e9, TriadBW: 17e9},
		Probe:      TrainProbe{Dim: 80, EffFLOPS: 3.5e9, StepSec: 0.03, Steps: 4},
		Contention: 3.5,
	}
	for _, sp := range []struct {
		op     string
		dtype  string
		phases float64
		alpha  float64
		beta   float64
	}{
		{"allreduce", "fp32", 2, 40e-6, 3.2e-9},
		{"reducescatter", "fp32", 1, 25e-6, 1.7e-9},
		{"allgather", "fp32", 1, 24e-6, 1.6e-9},
		{"allreduce", "bf16", 2, 45e-6, 2.1e-9},
	} {
		f := CollectiveFit{Op: sp.op, DType: sp.dtype, Ranks: 4, Phases: sp.phases,
			Alpha: sp.alpha, Beta: sp.beta}
		for _, v := range []float64{4e3, 64e3, 1024e3} {
			f.Points = append(f.Points, SweepPoint{Bytes: v, Sec: sp.alpha + sp.beta*v})
		}
		p.Collectives = append(p.Collectives, f)
	}
	return p
}

func testWorkload() perfmodel.Workload {
	enc := vit.Config{Name: "t", Width: 128, Depth: 4, MLP: 512, Heads: 4,
		PatchSize: 4, ImageSize: 16, Channels: 3}
	return perfmodel.Workload{
		Model: enc, LocalBatch: 4, EncoderTokens: 4, MAE: true,
		DecWidth: 64, DecDepth: 2, Prec: perfmodel.FP32Precision(),
	}
}

// TestSaveProfileFileReplacesAtomically: saving over an existing
// profile replaces the file rather than rewriting it in place, so a
// reader holding the old file still reads the old profile whole, and a
// save that dies mid-write cannot leave a truncated one behind.
func TestSaveProfileFileReplacesAtomically(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hwprofile.json")
	old := testProfile()
	if err := SaveProfileFile(path, old); err != nil {
		t.Fatal(err)
	}
	want, err := MarshalProfile(old)
	if err != nil {
		t.Fatal(err)
	}
	held, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()

	next := testProfile()
	next.Ranks, next.Contention = 8, 1.5
	if err := SaveProfileFile(path, next); err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(held)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("the held file changed under the save: read %d bytes, want the old %d", len(got), len(want))
	}
	q, err := LoadProfileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(q, next) {
		t.Fatalf("path holds %+v, want the new profile", q)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temporary file left behind: %v", err)
	}
}

// TestProfileRoundTripBitwiseSimulate: save → load must reproduce the
// profile exactly, and a Simulate driven by the loaded profile must be
// bitwise identical to one driven by the original.
func TestProfileRoundTripBitwiseSimulate(t *testing.T) {
	p := testProfile()
	path := filepath.Join(t.TempDir(), "hwprofile.json")
	if err := SaveProfileFile(path, p); err != nil {
		t.Fatal(err)
	}
	q, err := LoadProfileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip changed the profile:\n%+v\nvs\n%+v", p, q)
	}

	w := testWorkload()
	plan := fsdp.BestPractice(fsdp.FullShard, 0)
	run := func(hp *HardwareProfile) fsdp.Result {
		m, err := hp.MachineFor(w, 3)
		if err != nil {
			t.Fatal(err)
		}
		r, err := fsdp.Simulate(w, m, 1, plan)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(p), run(q)
	for _, pair := range [][2]float64{
		{a.StepTime, b.StepTime}, {a.ComputeTime, b.ComputeTime},
		{a.CommTime, b.CommTime}, {a.ExposedComm, b.ExposedComm},
	} {
		if math.Float64bits(pair[0]) != math.Float64bits(pair[1]) {
			t.Fatalf("simulate diverged across round trip: %v vs %v", pair[0], pair[1])
		}
	}
}

// TestProfileRejectsCorruption mirrors the TrainState envelope tests:
// truncation, payload corruption and unknown versions each fail with
// their named message.
func TestProfileRejectsCorruption(t *testing.T) {
	data, err := MarshalProfile(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	check := func(t *testing.T, mutate func([]byte) []byte, wantSub string) {
		t.Helper()
		_, err := UnmarshalProfile(mutate(append([]byte(nil), data...)))
		if err == nil {
			t.Fatal("corrupted profile accepted")
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("error %q does not name the failure %q", err, wantSub)
		}
	}
	t.Run("truncated", func(t *testing.T) {
		check(t, func(b []byte) []byte { return b[:len(b)/3] }, "truncated or not a profile")
	})
	t.Run("not-json", func(t *testing.T) {
		check(t, func(b []byte) []byte { return []byte("not a profile") }, "truncated or not a profile")
	})
	t.Run("corrupted-payload", func(t *testing.T) {
		check(t, func(b []byte) []byte {
			// Flip a digit inside the payload, leaving the envelope valid
			// JSON: the checksum must catch it.
			i := strings.Index(string(b), `"Ranks": 4`)
			if i < 0 {
				t.Fatal("payload marker not found")
			}
			b[i+len(`"Ranks": `)] = '3'
			return b
		}, "checksum mismatch")
	})
	t.Run("unknown-version", func(t *testing.T) {
		check(t, func(b []byte) []byte {
			return []byte(strings.Replace(string(b), profileFormat, "hwprofile/v999", 1))
		}, "unknown hardware-profile format")
	})
}

// TestMachineForUsesMeasurements pins the profile → machine mapping:
// effective FLOPs read off the roofline at the workload's
// characteristic dim, HBM bandwidth from triad, the link from the
// pooled fp32 fit, and the calibration flag set.
func TestMachineForUsesMeasurements(t *testing.T) {
	p := testProfile()
	w := testWorkload()
	m, err := p.MachineFor(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Calibrated {
		t.Fatal("calibrated machine not flagged")
	}
	if m.HBMBandwidth != p.Stream.TriadBW {
		t.Fatalf("HBM bandwidth %v, want triad %v", m.HBMBandwidth, p.Stream.TriadBW)
	}
	dim := CharacteristicGEMMDim(w)
	discount := p.Probe.EffFLOPS / (p.GEMM.GFLOPSAt(p.Probe.Dim) * 1e9)
	if discount > 1 {
		discount = 1
	}
	want := p.GEMM.GFLOPSAt(dim) * 1e9 * discount / p.Contention
	if rel := math.Abs(m.EffectiveFLOPS()-want) / want; rel > 1e-9 {
		t.Fatalf("effective FLOPs %v, want discounted roofline at dim %.1f = %v", m.EffectiveFLOPS(), dim, want)
	}
	link, err := p.LinkParams("fp32")
	if err != nil {
		t.Fatal(err)
	}
	if m.IntraNodeBW != link.Bandwidth || m.CollectiveLaunch != link.Launch {
		t.Fatalf("machine link (%v, %v) != pooled fit (%v, %v)",
			m.IntraNodeBW, m.CollectiveLaunch, link.Bandwidth, link.Launch)
	}
	// Congestion scaling stretches cost both ways.
	m2, err := p.MachineFor(w, 10)
	if err != nil {
		t.Fatal(err)
	}
	if m2.IntraNodeBW >= m.IntraNodeBW || m2.CollectiveLaunch <= m.CollectiveLaunch {
		t.Fatalf("commScale=10 did not slow the link: %+v", m2)
	}
}

// TestCharacteristicDimWeighted: the operating point sits between the
// smallest and largest GEMM family dims and moves with batch size.
func TestCharacteristicDimWeighted(t *testing.T) {
	w := testWorkload()
	d := CharacteristicGEMMDim(w)
	if d <= 16 || d >= 512 {
		t.Fatalf("characteristic dim %v outside the model's GEMM range", d)
	}
	w2 := w
	w2.LocalBatch *= 8
	if d2 := CharacteristicGEMMDim(w2); d2 <= d {
		t.Fatalf("larger batch should raise the operating point: %v vs %v", d2, d)
	}
}
