package analysis

import (
	"path/filepath"
	"testing"
)

// The fixture tests run each analyzer over its annotated testdata
// package and require an exact match between findings and `// want`
// comments — every analyzer has positive cases (deliberately broken
// code), negative cases (idiomatic code that must stay silent), and a
// pragma-suppressed case.

func fixtureRoot(t *testing.T) string {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	return root
}

func runFixture(t *testing.T, name string, analyzers []*Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range CheckFixture(fixtureRoot(t), analyzers, dir) {
		t.Error(p)
	}
}

func TestFloatEqFixture(t *testing.T) { runFixture(t, "floateq", []*Analyzer{FloatEq}) }

func TestPanicPrefixFixture(t *testing.T) { runFixture(t, "panicprefix", []*Analyzer{PanicPrefix}) }

func TestErrSentinelFixture(t *testing.T) { runFixture(t, "errsentinel", []*Analyzer{ErrSentinel}) }

func TestOrderedReduceFixture(t *testing.T) {
	runFixture(t, "orderedreduce", []*Analyzer{OrderedReduce})
}

// TestPragmaFixture checks that malformed pragmas are findings of the
// synthetic pragma analyzer and do not suppress anything.
func TestPragmaFixture(t *testing.T) { runFixture(t, "pragma", []*Analyzer{FloatEq}) }

// TestByName pins the CLI's -run resolution.
func TestByName(t *testing.T) {
	as, err := ByName([]string{"floateq", "orderedreduce"})
	if err != nil || len(as) != 2 || as[0] != FloatEq || as[1] != OrderedReduce {
		t.Fatalf("ByName = %v, %v", as, err)
	}
	if _, err := ByName([]string{"nosuch"}); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

// TestTreeClean is the gate's own gate: the tree this test ships in
// must produce zero unsuppressed findings.
func TestTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-tree typecheck in short mode")
	}
	findings, err := Run(Config{Root: fixtureRoot(t)})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, f := range findings {
		t.Errorf("unsuppressed finding: %s", f)
	}
}
