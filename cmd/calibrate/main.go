// Command calibrate measures this host's performance character and
// writes the checksummed hardware profile the simulator consumes in
// place of its asserted Frontier constants: a GEMM roofline over the
// blocked kernels, STREAM copy/scale/triad bandwidth, α–β fits of the
// in-process collectives (fp32 and bf16 wire), an executed train-step
// probe, and the core-oversubscription factor.
//
// Usage:
//
//	calibrate -out hwprofile.json            # full measurement
//	calibrate -quick -out hwprofile.json     # short sweeps (CI smoke)
//	calibrate -profile hwprofile.json -validate
//	calibrate -quick -validate               # measure, then validate
//
// -validate executes the {DDP, ZeRO-1, FULL_SHARD, HYBRID_2} × {fp32,
// bf16} × {sync, overlap} matrix for a few short steps each and
// compares measured step wall-clock, compute and exposed communication
// against the calibrated simulator's prediction; the exit status is
// nonzero if any case falls outside tolerance.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/calib"
)

func main() {
	out := flag.String("out", "hwprofile.json", "profile output path (empty = print only)")
	quick := flag.Bool("quick", false, "short sweeps: the CI smoke mode")
	ranks := flag.Int("ranks", 4, "collective-sweep world size")
	load := flag.String("profile", "", "load an existing profile instead of measuring")
	validate := flag.Bool("validate", false, "run the executed simulator-validation matrix")
	steps := flag.Int("steps", 0, "validation steps per case (0 = default)")
	flag.Parse()
	if err := checkFlags(*ranks, *steps); err != nil {
		fatal(err)
	}

	var p *calib.HardwareProfile
	var err error
	if *load != "" {
		p, err = calib.LoadProfileFile(*load)
	} else {
		fmt.Println("calibrating (GEMM roofline, STREAM, collective sweeps, train probe)...")
		p, err = calib.Measure(calib.Options{Ranks: *ranks, Quick: *quick, Now: time.Now()})
	}
	if err != nil {
		fatal(err)
	}
	printSummary(os.Stdout, p)

	if *load == "" && *out != "" {
		if err := calib.SaveProfileFile(*out, p); err != nil {
			fatal(err)
		}
		fmt.Printf("profile written to %s\n", *out)
	}

	if *validate {
		rep, err := calib.Validate(p, calib.ValidateOptions{Steps: *steps})
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.String())
		if n := rep.Failures(); n > 0 {
			fatal(fmt.Errorf("%d validation case(s) outside tolerance", n))
		}
	}
}

// checkFlags rejects, before anything is measured, the -ranks and
// -steps values the command could otherwise only replace with a default
// or discover after the sweeps have run.
func checkFlags(ranks, steps int) error {
	if ranks < 2 {
		return fmt.Errorf("bad -ranks %d (want at least 2)", ranks)
	}
	if steps < 0 {
		return fmt.Errorf("bad -steps %d (want 0 for the default, or more)", steps)
	}
	return nil
}

// printSummary renders the profile's headline numbers: the roofline
// curve, memory bandwidth, each collective fit, and the two factors
// that anchor the compute term.
func printSummary(w io.Writer, p *calib.HardwareProfile) {
	fmt.Fprintf(w, "host: %s, %d logical cores (GOMAXPROCS %d), %d-rank sweeps\n",
		p.Host.KernelISA(), p.Host.LogicalCores, p.Host.MaxProcs, p.Ranks)
	fmt.Fprintf(w, "GEMM roofline: peak %.2f GFLOP/s\n", p.GEMM.PeakGFLOPS())
	for _, pt := range p.GEMM.Points {
		fmt.Fprintf(w, "  %4dx%4dx%4d  %8.2f GFLOP/s  (%.0f%% of peak)\n",
			pt.M, pt.K, pt.N, pt.GFLOPS, 100*pt.GFLOPS/p.GEMM.PeakGFLOPS())
	}
	fmt.Fprintf(w, "STREAM (%d elems): copy %.2f  scale %.2f  triad %.2f GB/s\n",
		p.Stream.Elems, p.Stream.CopyBW/1e9, p.Stream.ScaleBW/1e9, p.Stream.TriadBW/1e9)
	fmt.Fprintln(w, "collectives (α–β fits):")
	for _, f := range p.Collectives {
		fmt.Fprintf(w, "  %-14s %-5s α %7.1fµs  β %6.3f ns/B  (%.1f MiB/s effective)\n",
			f.Op, f.DType, f.Alpha*1e6, f.Beta*1e9, 1/f.Beta/(1<<20))
	}
	fmt.Fprintf(w, "train probe: %.2f GFLOP/s achieved over %d steps (%.1f ms/step, dim %.0f)\n",
		p.Probe.EffFLOPS/1e9, p.Probe.Steps, p.Probe.StepSec*1e3, p.Probe.Dim)
	fmt.Fprintf(w, "contention: ×%.2f per-stream GEMM slowdown at %d streams\n",
		p.Contention, p.Ranks)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "calibrate:", err)
	os.Exit(1)
}
