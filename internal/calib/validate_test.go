package calib

import (
	"os"
	"strings"
	"testing"
	"time"
)

// TestSimulatorValidation is the full executed-vs-predicted matrix.
// It measures this host and times real training runs, so it is not
// part of the hermetic tier-1 suite: set CALIB_VALIDATE=1 to run it
// (the CI calibration job does; see also BenchmarkCalibValidate, which
// records the same matrix in BENCH_calib.json).
func TestSimulatorValidation(t *testing.T) {
	if os.Getenv("CALIB_VALIDATE") == "" {
		t.Skip("timing suite; set CALIB_VALIDATE=1 to run")
	}
	p, err := Measure(Options{Ranks: 4, Quick: true, Now: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Validate(p, ValidateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if n := rep.Failures(); n > 0 {
		t.Fatalf("%d/%d cases outside tolerance", n, len(rep.Cases))
	}
}

// TestValidateRejectsNegativeSteps: a negative step count is named as
// the option it is, before any case executes.
func TestValidateRejectsNegativeSteps(t *testing.T) {
	_, err := Validate(testProfile(), ValidateOptions{Steps: -3})
	if err == nil || !strings.HasPrefix(err.Error(), "calib: ") || !strings.Contains(err.Error(), "Steps -3") {
		t.Fatalf("got %v, want a calib: error naming Steps -3", err)
	}
}

// BenchmarkCalibValidate runs quick calibration plus the validation
// matrix once and reports the agreement statistics the perf
// trajectory records (make calibrate → BENCH_calib.json): worst and
// mean measured/predicted step-time ratio, case count, failures, and
// the tolerance bounds the matrix was judged by.
func BenchmarkCalibValidate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := Measure(Options{Ranks: 4, Quick: true, Now: time.Now()})
		if err != nil {
			b.Fatal(err)
		}
		rep, err := Validate(p, ValidateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		b.Logf("\n%s", rep)
		worst, sum := 1.0, 0.0
		for _, c := range rep.Cases {
			r := c.Step.Ratio()
			if r < 1 && r > 0 {
				r = 1 / r
			}
			if r > worst {
				worst = r
			}
			sum += c.Step.Ratio()
		}
		b.ReportMetric(worst, "worst-step-ratio")
		b.ReportMetric(sum/float64(len(rep.Cases)), "mean-step-ratio")
		b.ReportMetric(float64(len(rep.Cases)), "cases")
		b.ReportMetric(float64(rep.Failures()), "failures")
		b.ReportMetric(rep.TolStep, "tol-step")
		b.ReportMetric(rep.TolExposed, "tol-exposed")
	}
}
