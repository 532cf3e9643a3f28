package main

import (
	"os"
	"regexp"
	"testing"
)

// TestMain moves to the repository root: the benchmark reads
// BENCHMARK.json and writes bench/out relative to it, as it does when
// run as `go run ./bench`.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

func loadContract(t *testing.T) contract {
	t.Helper()
	var con contract
	if err := readJSON("BENCHMARK.json", &con); err != nil {
		t.Fatal(err)
	}
	return con
}

// TestContractShape holds BENCHMARK.json to the limits of the benchmark
// contract and to the workload table in this package.
func TestContractShape(t *testing.T) {
	con := loadContract(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(con.Workloads); n < 2 || n > 8 || n != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table (want 2..8)", n, len(workloadNames))
	}
	if n := len(con.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(con.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if con.RunSeconds < 1 || con.RunSeconds > 60 {
		t.Errorf("run_seconds %d, want 1..60", con.RunSeconds)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is not a contract name", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for i, w := range con.Workloads {
		use(w.Name)
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the table", i, w.Name, workloadNames[i])
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	hasSetup := false
	for _, m := range con.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g, want (0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s [s, lower] among the end-to-end metrics")
	}
	for _, m := range con.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

// TestSmokeEmitsContract runs every workload untraced and traced at
// smoke scale and checks that each run emits exactly the contract's
// metrics for its mode, once each, with the contract's units, and
// passes its own correctness checks. It asserts nothing about wall
// clock.
func TestSmokeEmitsContract(t *testing.T) {
	con := loadContract(t)
	workloads, err := workloadsAt("smoke")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := con.EndToEnd
			if traced {
				want = con.PerLayer
			}
			rec, err := runWorkload(w, 1, 0.4, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: correct %v, attempted %d, failed %d, checks %+v",
					w.name, traced, rec.Correct, rec.Attempted, rec.Failed, rec.Checks)
			}
			if len(rec.Metrics) != len(want) {
				t.Errorf("%s traced=%v: emitted %d metrics, contract lists %d", w.name, traced, len(rec.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rec.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not emitted", w.name, traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s has unit %q, contract says %q", w.name, traced, m.Name, got.Unit, m.Unit)
				}
			}
			if traced {
				if _, err := os.Stat(outDir + "/" + w.name + ".trace.json"); err != nil {
					t.Errorf("%s: no trace file: %v", w.name, err)
				}
			}
		}
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; got < want-1e-12 || got > want+1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3}); got > 0 {
		t.Errorf("one sample has spread %v", got)
	}
}
