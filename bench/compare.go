package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"text/tabwriter"
)

// contract is BENCHMARK.json: the workloads, the metric names and
// units, and each end-to-end metric's regression bound.
type contract struct {
	RunSeconds int              `json:"run_seconds"`
	Workloads  []contractItem   `json:"workloads"`
	EndToEnd   []contractMetric `json:"end_to_end"`
	PerLayer   []contractMetric `json:"per_layer"`
}

type contractItem struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// exactRows are the per-layer rows that are counts or seed-determined
// values: between two runs of one commit and seed they must repeat
// exactly.
var exactRows = []string{"train.loss_final", "dist.calls_per_step", "dist.wire_bytes_per_step"}

// quartileSpread is the distance between the first and third quartile
// as a share of the median, with the quartiles of Python's
// statistics.quantiles(values, n=4). Fewer than two samples have no
// spread.
func quartileSpread(xs []float64) float64 {
	m := len(xs)
	if m < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(k int) float64 {
		j := k * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(k*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return (q(3) - q(1)) / math.Abs(median(s))
}

// compareLedgers judges ledger b against ledger a: one row per
// workload and end-to-end metric with both values, b÷a, and how much
// worse b is as a share of a. A metric whose own rep-to-rep quartile
// spread exceeds its bound is unresolved, not unchanged; any breach of
// a bound, or any exact row that differs, is an error.
func compareLedgers(pathA, pathB string) error {
	var con contract
	if err := readJSON("BENCHMARK.json", &con); err != nil {
		return err
	}
	var a, b ledger
	if err := readJSON(pathA, &a); err != nil {
		return err
	}
	if err := readJSON(pathB, &b); err != nil {
		return err
	}
	find := func(l ledger, name string, traced bool) *runRecord {
		for i := range l.Runs {
			if l.Runs[i].Workload == name && l.Runs[i].Trace == traced {
				return &l.Runs[i]
			}
		}
		return nil
	}

	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\ta (base)\tb\tb/a\tworse by\tbound\tverdict\n")
	breaches, unresolved := 0, 0
	for _, w := range con.Workloads {
		ra, rb := find(a, w.Name, false), find(b, w.Name, false)
		if ra == nil || rb == nil {
			return fmt.Errorf("workload %s missing from a ledger", w.Name)
		}
		for _, m := range con.EndToEnd {
			va, vb := ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value
			worse := vb/va - 1
			if m.Better == "higher" {
				worse = 1 - vb/va
			}
			verdict := "ok"
			switch spread := math.Max(quartileSpread(ra.Reps[m.Name]), quartileSpread(rb.Reps[m.Name])); {
			case ra.Unresolved || rb.Unresolved:
				verdict = "unresolved (too few cores)"
				unresolved++
			case spread > m.Bound:
				verdict = fmt.Sprintf("unresolved (rep spread %.3f)", spread)
				unresolved++
			case worse > m.Bound:
				verdict = "BREACH"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g\t%.4f\t%+.4f\t%.2f\t%s\n",
				w.Name, m.Name, va, m.Unit, vb, vb/va, worse, m.Bound, verdict)
		}
		ta, tb := find(a, w.Name, true), find(b, w.Name, true)
		if ta == nil || tb == nil || a.Meta.Seed != b.Meta.Seed {
			continue
		}
		for _, name := range exactRows {
			va, vb := ta.Metrics[name].Value, tb.Metrics[name].Value
			verdict := "ok (exact)"
			if !bitsEqual(va, vb) {
				verdict = "BREACH (must repeat exactly)"
				breaches++
			}
			fmt.Fprintf(tw, "%s\t%s\t%.9g %s\t%.9g\t\t\t\t%s\n", w.Name, name, va, ta.Metrics[name].Unit, vb, verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Printf("%d breached, %d unresolved\n", breaches, unresolved)
	if breaches > 0 {
		return fmt.Errorf("%d metrics breached their bound", breaches)
	}
	return nil
}
