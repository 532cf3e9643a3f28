package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/simulator.golden from the current output")

// mustParse is parseOptions for command lines a test expects to be
// valid.
func mustParse(t *testing.T, args ...string) options {
	t.Helper()
	o, err := parseOptions(args)
	if err != nil {
		t.Fatalf("parseOptions(%q): %v", args, err)
	}
	return o
}

// TestSimulatorArtifactsGolden pins every simulator artifact at fixed
// -nodes and -precision. The simulator is closed-form and seeded, so
// these bytes are the same on any host.
func TestSimulatorArtifactsGolden(t *testing.T) {
	o := mustParse(t, "-only", "table1,table2,fig1,fig2,fig3,fig4,fig4-trace,fig4-csv,minmem,restart",
		"-nodes", "2,16", "-precision", "bf16")
	var b strings.Builder
	if err := run(o, &b); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "simulator.golden")
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("simulator artifacts drifted from %s (rerun with -update if intended):\n%s", path, got)
	}
}

// TestTrainingStructure runs -scale test -only training and checks the
// report's shape. Its img/s figures come from the wall clock, so the
// text is not golden-pinned.
func TestTrainingStructure(t *testing.T) {
	var b strings.Builder
	if err := run(mustParse(t, "-scale", "test", "-only", "training"), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`== Section V — real training at "test" scale ==`,
		"== Figure 5 ", "== Table III ", "== Figure 6 ",
		"accuracy gain MillionAID", "accuracy gain UCM", "accuracy gain AID", "accuracy gain NWPU",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("training report lacks %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "== Table I ") || strings.Contains(out, "Section VI") {
		t.Errorf("-only training printed other artifacts:\n%s", out)
	}
}

// TestBadOptionsFailBeforeOutput: an unknown artifact, scale, precision
// or node count is a named error from parsing, before run prints
// anything.
func TestBadOptionsFailBeforeOutput(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-only", "fig5"}, `unknown artifact "fig5" in -only`},
		{[]string{"-only", "fig1,,fig3"}, `unknown artifact "" in -only`},
		{[]string{"-only", ""}, `unknown artifact "" in -only`},
		{[]string{"-scale", "tset"}, `unknown -scale "tset"`},
		{[]string{"-precision", "fp16"}, `fp16`},
		{[]string{"-nodes", "0"}, `invalid node count "0"`},
		{[]string{"-nodes", "-1"}, `invalid node count "-1"`},
		{[]string{"-nodes", "x"}, `invalid node count "x"`},
		{[]string{"-nodes", "2,,8"}, `invalid node count ""`},
		{[]string{"-nodes", "2,"}, `invalid node count ""`},
	} {
		if _, err := parseOptions(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("parseOptions(%q) = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

// TestOutWritesReport: -out receives exactly what w does, and a path
// that cannot be created is run's error.
func TestOutWritesReport(t *testing.T) {
	o := mustParse(t, "-only", "table1,fig2")
	o.out = filepath.Join(t.TempDir(), "report.txt")
	var b strings.Builder
	if err := run(o, &b); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != b.String() || !strings.Contains(b.String(), "== Figure 2 ") {
		t.Errorf("-out holds %d bytes, stdout %d:\n%s", len(got), b.Len(), got)
	}

	o.out = filepath.Join(t.TempDir(), "missing", "report.txt")
	if err := run(o, &strings.Builder{}); err == nil {
		t.Error("run with an uncreatable -out path succeeded")
	}
}
