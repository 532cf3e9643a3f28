// Command bench is the repository's one end-to-end benchmark: four
// workloads driven through the public functions of train, serve, mae,
// nn, tensor, opt, dist, dataload, parallel and calib, each reporting
// the end-to-end metrics a user of the system sees and — in a separate
// traced run — a per-layer ledger that says where the time went.
// BENCHMARK.json at the repository root is the contract (workloads,
// metric names, units, regression bounds); README.md in this directory
// explains why each workload exists and which end-to-end number each
// layer metric should move.
//
// One invocation runs one workload in its own process, so set-up time
// and peak memory are per workload:
//
//	go run ./bench -workload pretrain_compute -seed 1 -seconds 20 -trace 0
//
// prints every metric by name and unit, then — as the last line of
// standard output — one JSON object {correct, attempted, failed,
// metrics}. -trace 1 records spans in the benchmark's own recorder,
// writes bench/out/<workload>.trace.json and reports the per-layer
// metrics instead. -all runs every workload both ways in child
// processes and writes one ledger file; -compare judges two ledgers
// against the bounds in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"
)

// outDir is where traces, ledgers and checkpoint scratch files go: the
// only place the benchmark writes (the root .gitignore keeps it out
// of the tree).
const outDir = "bench/out"

// metric is one reported number, in the shape the contract's result
// line uses.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract's last-line JSON object.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one named correctness assertion of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// runRecord is one workload run as the ledger keeps it: the contract
// result plus what -compare needs to judge it — the samples behind
// each end-to-end value and the named checks.
type runRecord struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	result
	// Reps holds, per end-to-end metric, the per-rep samples whose
	// quartile spread says whether the value resolves its bound.
	Reps   map[string][]float64 `json:"reps,omitempty"`
	Checks []check              `json:"checks"`
	// Unresolved marks a run whose wall-clock metrics mean nothing on
	// this host (a multi-rank workload on fewer than two cores).
	Unresolved bool `json:"unresolved,omitempty"`
}

// meta identifies the host and build a ledger was measured on.
type meta struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
	Scale      string `json:"scale"`
}

// ledger is the file -all writes and -compare reads.
type ledger struct {
	Meta meta        `json:"meta"`
	Runs []runRecord `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (see BENCHMARK.json)")
		seed    = flag.Uint64("seed", 1, "seed for dataset, init, masks, arrival schedule and payloads")
		seconds = flag.Float64("seconds", 20, "how long the run measures")
		traced  = flag.Int("trace", 0, "1 records spans and reports the per-layer metrics")
		scale   = flag.String("scale", "full", "full, or smoke (tiny shapes, for the hermetic test)")
		all     = flag.Bool("all", false, "run every workload with -trace 0 and 1 in child processes")
		out     = flag.String("out", "", "write the run record (or, with -all, the ledger) to this file")
		compare = flag.Bool("compare", false, "compare two ledgers: -compare a.json b.json")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced != 0, *scale, *all, *out, *compare, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, scale string,
	all bool, out string, compare bool, args []string) error {
	workloads, err := workloadsAt(scale)
	if err != nil {
		return err
	}
	switch {
	case compare:
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two ledger files")
		}
		return compareLedgers(args[0], args[1])
	case all:
		return runAll(seed, seconds, scale, out)
	}
	i := slices.Index(workloadNames, name)
	if i < 0 {
		return fmt.Errorf("unknown -workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	rec, err := runWorkload(workloads[i], seed, seconds, traced)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	if out != "" {
		if err := writeJSON(out, rec); err != nil {
			return err
		}
	}
	printRecord(rec)
	line, err := json.Marshal(rec.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runWorkload runs one workload in this process and fills its record.
func runWorkload(w workload, seed uint64, seconds float64, traced bool) (*runRecord, error) {
	rec := &runRecord{
		Workload: w.name, Seed: seed, Seconds: seconds, Trace: traced,
		result: result{Metrics: map[string]metric{}},
		Reps:   map[string][]float64{},
	}
	if w.ranks > 1 && runtime.NumCPU() < 2 {
		fmt.Fprintf(os.Stderr, "bench: warning: %s runs %d ranks on %d core; its counts hold, its wall-clock metrics are unresolved\n",
			w.name, w.ranks, runtime.NumCPU())
		rec.Unresolved = true
	}
	var err error
	if traced {
		err = runTraced(w, seed, seconds, rec)
	} else {
		err = runEndToEnd(w, seed, seconds, rec)
	}
	if err != nil {
		return nil, err
	}
	rec.Correct = true
	for _, c := range rec.Checks {
		if !c.OK {
			rec.Correct = false
			fmt.Fprintf(os.Stderr, "bench: %s: check %s failed: %s\n", w.name, c.Name, c.Detail)
		}
	}
	return rec, nil
}

// runAll runs every workload untraced and traced, one child process
// each, and collects the records into one ledger.
func runAll(seed uint64, seconds float64, scale, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	led := ledger{Meta: hostMeta(seed, scale)}
	for _, name := range workloadNames {
		for _, tr := range []string{"0", "1"} {
			recPath := filepath.Join(outDir, fmt.Sprintf("%s.trace%s.json", name, tr))
			cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
				"-seconds", fmt.Sprint(seconds), "-trace", tr, "-scale", scale, "-out", recPath)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				return fmt.Errorf("%s -trace %s: %w", name, tr, err)
			}
			var rec runRecord
			if err := readJSON(recPath, &rec); err != nil {
				return err
			}
			led.Runs = append(led.Runs, rec)
		}
	}
	if out == "" {
		out = filepath.Join(outDir, "ledger.json")
	}
	if err := writeJSON(out, led); err != nil {
		return err
	}
	fmt.Fprintln(os.Stderr, "bench: wrote", out)
	return nil
}

// printRecord prints every metric of the run by name with its unit,
// and the named checks.
func printRecord(rec *runRecord) {
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("workload %s  seed %d  seconds %g  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	for _, n := range names {
		m := rec.Metrics[n]
		fmt.Printf("  %-34s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, c := range rec.Checks {
		verdict := "ok"
		if !c.OK {
			verdict = "FAILED " + c.Detail
		}
		fmt.Printf("  check %-28s %s\n", c.Name, verdict)
	}
}

// hostMeta records what the numbers were measured on.
func hostMeta(seed uint64, scale string) meta {
	m := meta{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU: "unknown", Go: runtime.Version(), Commit: "unknown",
		Seed: seed, Scale: scale,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				m.Commit = s.Value
			}
		}
	}
	return m
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
