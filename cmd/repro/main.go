// Command repro regenerates the paper's tables and figures: the
// simulator-backed performance artifacts (Tables I–II, Figures 1–4 and
// this repo's minimum-GPU and restart tables) and the real-training
// downstream artifacts (Figure 5, Table III, Figure 6) at a chosen
// scale.
//
// Usage:
//
//	repro                                  # every table at demo scale (minutes)
//	repro -scale test                      # every table at test scale (seconds)
//	repro -only table1,fig1,fig3           # just these artifacts, in this order
//	repro -only fig1 -nodes 1,2,4,8,16,32,64
//	repro -only fig3 -precision fp32       # what-if: full fp32 instead of AMP bf16
//	repro -only fig4-csv                   # the Figure 4 rocm-smi trace CSVs
//	repro -only extensions -scale test     # Section VI extension tasks
//	repro -out results.txt
//
// The -only names are table1, table2, minmem, fig1, fig2, fig3, fig4,
// fig4-trace, fig4-csv, restart, training (Figure 5, Table III and
// Figure 6) and extensions. Without -only every table prints;
// fig4-csv and extensions run only when named.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/fsdp"
	"repro/internal/perfmodel"
)

// options is the parsed command line: every flag that names something
// (-only, -nodes, -precision, -scale) is resolved in parseOptions, so a
// typo fails before anything prints.
type options struct {
	only    []artifact
	nodes   []int
	prec    perfmodel.Precision
	scale   experiments.Scale
	out     string
	verbose bool
}

// artifact is one -only name and what prints it.
type artifact struct {
	name string
	run  func(o options, w io.Writer) error
}

// table adapts an experiment that builds one table into an artifact's
// run function.
func table(build func(o options) (experiments.Table, error)) func(options, io.Writer) error {
	return func(o options, w io.Writer) error {
		t, err := build(o)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, t.Render())
		return nil
	}
}

// artifacts is the whole -only vocabulary.
var artifacts = []artifact{
	{"table1", table(func(options) (experiments.Table, error) { return experiments.TableIExperiment(), nil })},
	{"table2", table(func(options) (experiments.Table, error) { return experiments.TableIIExperiment(10, 32, 3, 42), nil })},
	{"minmem", table(func(options) (experiments.Table, error) { return experiments.MinGPUTable(), nil })},
	{"fig1", table(func(o options) (experiments.Table, error) { return experiments.Fig1Experiment(o.nodes, o.prec) })},
	{"fig2", table(func(options) (experiments.Table, error) { return experiments.Fig2Experiment() })},
	{"fig3", table(func(o options) (experiments.Table, error) { return experiments.Fig3Experiment(o.nodes, o.prec) })},
	{"fig4", table(func(o options) (experiments.Table, error) { return experiments.Fig4Experiment(o.nodes, o.prec) })},
	{"fig4-trace", table(func(options) (experiments.Table, error) {
		_, t, err := experiments.Fig4TraceExperiment()
		return t, err
	})},
	{"fig4-csv", func(_ options, w io.Writer) error {
		traces, _, err := experiments.Fig4TraceExperiment()
		if err != nil {
			return err
		}
		for _, tr := range traces {
			fmt.Fprintln(w, tr.RenderCSV())
		}
		return nil
	}},
	{"restart", table(func(o options) (experiments.Table, error) {
		return experiments.RestartExperiment(o.nodes, o.prec, fsdp.FaultModel{})
	})},
	{"training", training},
	{"extensions", extensions},
}

// defaultOnly is what a run without -only prints: every table. The raw
// trace CSVs and the Section VI extensions run only when named.
const defaultOnly = "table1,table2,minmem,fig1,fig2,fig3,fig4,fig4-trace,restart,training"

func main() {
	o, err := parseOptions(os.Args[1:])
	if err == nil {
		err = run(o, os.Stdout)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "repro:", err)
		os.Exit(1)
	}
}

// parseOptions parses and resolves the command line.
func parseOptions(args []string) (options, error) {
	var names []string
	for _, a := range artifacts {
		names = append(names, a.name)
	}
	fs := flag.NewFlagSet("repro", flag.ExitOnError)
	only := fs.String("only", defaultOnly, "comma-separated artifacts to print, in order: "+strings.Join(names, ", "))
	nodes := fs.String("nodes", "", "comma-separated node counts for fig1, fig3, fig4 and restart (default: the paper's sweep)")
	prec := fs.String("precision", "bf16", "numeric profile for the simulated scaling figures: bf16 (the paper's AMP recipe) or fp32")
	scale := fs.String("scale", "demo", "scale of training and extensions: test (seconds) or demo (minutes)")
	out := fs.String("out", "", "also write the report to this file")
	verbose := fs.Bool("v", false, "stream per-epoch training logs")
	_ = fs.Parse(args) // ExitOnError: a malformed flag exits with usage

	o := options{out: *out, verbose: *verbose}
	for _, name := range strings.Split(*only, ",") {
		i := slices.IndexFunc(artifacts, func(a artifact) bool { return a.name == name })
		if i < 0 {
			return o, fmt.Errorf("unknown artifact %q in -only (want %s)", name, strings.Join(names, ", "))
		}
		o.only = append(o.only, artifacts[i])
	}
	var err error
	if o.nodes, err = parseNodes(*nodes); err != nil {
		return o, err
	}
	if o.prec, err = perfmodel.PrecisionByName(*prec); err != nil {
		return o, err
	}
	switch *scale {
	case "test":
		o.scale = experiments.TestScale()
	case "demo":
		o.scale = experiments.DemoScale()
	default:
		return o, fmt.Errorf("unknown -scale %q (want test or demo)", *scale)
	}
	return o, nil
}

// parseNodes reads -nodes; empty means the paper's sweep.
func parseNodes(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("invalid node count %q in -nodes", part)
		}
		out = append(out, v)
	}
	return out, nil
}

// run prints the chosen artifacts to w, and to -out if set; a failure
// to create or close -out is returned like any other error.
func run(o options, w io.Writer) (err error) {
	if o.out != "" {
		f, createErr := os.Create(o.out)
		if createErr != nil {
			return createErr
		}
		defer func() {
			if closeErr := f.Close(); err == nil {
				err = closeErr
			}
		}()
		w = io.MultiWriter(w, f)
	}

	fmt.Fprintln(w, "Reproduction of: Pretraining Billion-scale Geospatial Foundational Models on Frontier")
	fmt.Fprintln(w, "(Tsaris et al., IPDPS 2024) — simulator + pure-Go training stack")
	fmt.Fprintln(w)
	for _, a := range o.only {
		if err := a.run(o, w); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
	}
	return nil
}

// trainLog is where training streams its per-epoch lines: w under -v,
// nowhere otherwise.
func (o options) trainLog(w io.Writer) io.Writer {
	if o.verbose {
		return w
	}
	return nil
}

// training pretrains the analog family and probes it: Figure 5,
// Table III and Figure 6.
func training(o options, w io.Writer) error {
	fmt.Fprintf(w, "== Section V — real training at %q scale ==\n\n", o.scale.Name)
	res, err := experiments.RunDownstream(o.scale, o.trainLog(w))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res.Fig5Experiment().Render())
	fmt.Fprintln(w, res.TableIIIExperiment().Render())
	fmt.Fprintln(w, res.Fig6Experiment().Render())
	for _, d := range res.Datasets {
		fmt.Fprintf(w, "accuracy gain %s (largest vs smallest model): %+.2f%%\n",
			d, 100*res.AccuracyGain(d))
	}
	return nil
}

// extensions runs the Section VI tasks: few-shot, segmentation and
// fine-tuning.
func extensions(o options, w io.Writer) error {
	fmt.Fprintf(w, "\n== Section VI — extension tasks ==\n\n")
	ext, err := experiments.RunExtensions(o.scale, o.trainLog(w))
	if err != nil {
		return err
	}
	fmt.Fprintln(w, ext.ExtensionTable().Render())
	return nil
}
