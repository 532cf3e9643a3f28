// Package analysis is the repo's static-analysis gate: a
// dependency-free (stdlib go/parser + go/types + go/importer) analyzer
// driver plus the suite of repo-invariant analyzers that `make
// analyze` and the CI `analyze` job run over the whole tree via
// cmd/statgate.
//
// Each analyzer mechanically enforces a convention that earlier PRs
// established by hand, and each is kept because it covers sites no
// other gate does: a violation seeded there fails statgate's own
// TestTreeClean and nothing else in tier-1, the purego build,
// `go vet -tags purego`, GOMAXPROCS=4 or the race job.
// Conventions those gates do police have no analyzer: the asm/purego
// kernel pairing (the purego build and vet reject a broken one) and
// waiting on collective handles (the suites and the rank-exit
// ErrAborted backstop catch a dropped Wait). A loader batch needs no
// release call at all: dataload takes each batch back when its loop
// body returns.
//
//   - panicprefix: panic string literals in internal/* start with
//     "<pkg>: " so a crash names its layer.
//   - floateq: == / != on floating-point operands outside sanctioned
//     bitwise-comparison sites — the repo's bitwise guarantees (PR 6
//     elastic resume, PR 9 bf16 GEMM) are checked through exact
//     integer bit patterns, not stray float equality.
//   - errsentinel: package-level error sentinels are named Err*/err*,
//     and fmt.Errorf with an error argument wraps it with %w so
//     errors.Is/As keep working across layers (the PR 6 fault
//     machinery depends on unwrapping).
//   - orderedreduce: a floating-point +=, -= or *= inside a
//     parallel.For/ForGrain/Range/RangeGrain body must not target a
//     variable declared outside it — tasks would fold into it in
//     arrival order, so the result would depend on scheduling and on
//     the worker count (the seed-era nn.MSE bug); per-task partials
//     indexed by the task's range are the sanctioned form.
//
// A finding is suppressible only via an explicit pragma on the
// offending line or the line directly above it:
//
//	//statgate:allow <analyzer> — <reason>
//
// The reason is mandatory; a malformed pragma is itself a finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer checks one repo invariant. Run receives a fully
// type-checked package: the default build context's non-test files.
type Analyzer struct {
	Name string
	// Doc is the one-line invariant description shown by statgate -list.
	Doc string
	Run func(*Pass)
}

// A Pass presents one type-checked package to an Analyzer.Run.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Path is the package's import path.
	Path string

	report func(token.Pos, string)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// A Finding is one analyzer diagnostic, already pragma-filtered by the
// driver.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: [%s] %s", f.Pos, f.Analyzer, f.Message)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		PanicPrefix,
		FloatEq,
		ErrSentinel,
		OrderedReduce,
	}
}

// ByName returns the named analyzers out of All, or an error naming
// the first unknown one.
func ByName(names []string) ([]*Analyzer, error) {
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range names {
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// sortFindings orders findings by file, line, column, analyzer.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
