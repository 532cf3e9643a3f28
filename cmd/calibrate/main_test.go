package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/calib"
	"repro/internal/hw"
)

// syntheticProfile builds a deterministic profile so the CLI tests stay
// hermetic — nothing here is measured.
func syntheticProfile() *calib.HardwareProfile {
	p := &calib.HardwareProfile{
		Host:        hw.Features{Arch: "amd64", OS: "linux", LogicalCores: 8, MaxProcs: 8},
		Ranks:       4,
		CreatedUnix: 1754600000,
		GEMM: calib.Roofline{Points: []calib.GEMMPoint{
			{M: 64, K: 64, N: 64, GFLOPS: 8}, {M: 256, K: 256, N: 256, GFLOPS: 20},
		}},
		Stream:     calib.StreamResult{Elems: 1 << 22, CopyBW: 21e9, ScaleBW: 19e9, TriadBW: 17e9},
		Probe:      calib.TrainProbe{Dim: 80, EffFLOPS: 3.5e9, StepSec: 0.03, Steps: 4},
		Contention: 3.5,
	}
	for _, sp := range []struct {
		op, dtype   string
		phases      float64
		alpha, beta float64
	}{
		{"allreduce", "fp32", 2, 40e-6, 3.2e-9},
		{"allgather", "fp32", 1, 24e-6, 1.6e-9},
	} {
		f := calib.CollectiveFit{Op: sp.op, DType: sp.dtype, Ranks: 4,
			Phases: sp.phases, Alpha: sp.alpha, Beta: sp.beta}
		for _, v := range []float64{4e3, 64e3, 1024e3} {
			f.Points = append(f.Points, calib.SweepPoint{Bytes: v, Sec: sp.alpha + sp.beta*v})
		}
		p.Collectives = append(p.Collectives, f)
	}
	return p
}

// TestPrintSummaryNamesEveryInstrument: the summary must surface each
// measured quantity — roofline, STREAM, every fit, probe, contention —
// so a profile is reviewable without opening the JSON.
func TestPrintSummaryNamesEveryInstrument(t *testing.T) {
	var b strings.Builder
	printSummary(&b, syntheticProfile())
	out := b.String()
	for _, want := range []string{
		"GEMM roofline: peak 20.00 GFLOP/s",
		"256x 256x 256",
		"triad 17.00 GB/s",
		"allreduce",
		"allgather",
		"train probe: 3.50 GFLOP/s",
		"contention: ×3.50",
		"4-rank sweeps",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestCheckFlags pins the fail-fast on -ranks and -steps: a world of
// fewer than two ranks, which Measure would replace (0) or reject only
// after the roofline and STREAM (1, negative), and a negative step count
// are named before anything runs.
func TestCheckFlags(t *testing.T) {
	for _, ok := range []struct{ ranks, steps int }{{2, 0}, {4, 0}, {4, 6}} {
		if err := checkFlags(ok.ranks, ok.steps); err != nil {
			t.Errorf("checkFlags(%d, %d): %v", ok.ranks, ok.steps, err)
		}
	}
	for _, bad := range []struct {
		ranks, steps int
		want         string
	}{
		{0, 0, "bad -ranks 0"},
		{1, 0, "bad -ranks 1"},
		{-2, 0, "bad -ranks -2"},
		{4, -3, "bad -steps -3"},
	} {
		err := checkFlags(bad.ranks, bad.steps)
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("checkFlags(%d, %d) = %v, want an error naming %q", bad.ranks, bad.steps, err, bad.want)
		}
	}
}

// TestProfileFileRoundTripThroughCLIHelpers: the file the command
// writes must load back verbatim through the same loader -validate
// uses.
func TestProfileFileRoundTripThroughCLIHelpers(t *testing.T) {
	p := syntheticProfile()
	path := filepath.Join(t.TempDir(), "hwprofile.json")
	if err := calib.SaveProfileFile(path, p); err != nil {
		t.Fatal(err)
	}
	q, err := calib.LoadProfileFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var a, b strings.Builder
	printSummary(&a, p)
	printSummary(&b, q)
	if a.String() != b.String() {
		t.Fatalf("summary changed across save/load:\n%s\nvs\n%s", a.String(), b.String())
	}
}
