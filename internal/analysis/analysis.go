// Package analysis is the repo's static-analysis gate: a
// dependency-free (stdlib go/parser + go/types + go/importer) analyzer
// driver plus the suite of repo-invariant analyzers that `make
// analyze` and the CI `analyze` job run over the whole tree via
// cmd/statgate.
//
// Each analyzer mechanically enforces a convention that earlier PRs
// established by hand and that code review alone does not scale to:
//
//   - asmpair: every *_amd64.s / *_amd64.go kernel file has a
//     *_generic.go purego twin declaring the same bodied function set,
//     with the amd64 side gated `amd64 && !purego` and the generic
//     side `!amd64 || purego` (the PR 1/4/9 kernel dispatch pattern).
//   - mustwait: a locally created dist async collective handle must
//     reach Wait (directly or via ...After chaining) or escape the
//     function on every path — abandoned handles are failed with
//     ErrAborted at rank exit (PR 5), so a dropped handle is a bug.
//   - lifecycle: function-local acquisitions of pooled or arena
//     resources (dataload batches from Epoch/EpochN, nn.InferCtx)
//     must be released (Recycle / Release) or escape on every path;
//     PR 5's double-put guard and PR 9's scratch-growth fix were both
//     slips of exactly this kind.
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

// An Analyzer checks one repo invariant. Exactly one of Run and RunDir
// is set: Run receives a fully type-checked package (the default build
// context's non-test files); RunDir receives every parsed non-test Go
// file in a directory regardless of build constraints, for checks —
// like the asm/purego pairing — that must see all build variants of a
// package at once.
type Analyzer struct {
	Name string
	// Doc is the one-line invariant description shown by statgate -list.
	Doc    string
	Run    func(*Pass)
	RunDir func(*DirPass)
}

// A Pass presents one type-checked package to an Analyzer.Run.
type Pass struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
	// Dir is the package directory on disk; Path its import path.
	Dir  string
	Path string

	report func(token.Pos, string)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// A DirPass presents one directory's full file set (every non-test .go
// file, all build variants, syntax only) to an Analyzer.RunDir.
type DirPass struct {
	Fset *token.FileSet
	Dir  string
	// Files maps base filename to its parsed syntax tree.
	Files map[string]*ast.File
	// AsmFiles lists base filenames of *.s files in the directory.
	AsmFiles []string

	report func(token.Pos, string)
}

// Reportf records a finding at pos.
func (p *DirPass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(pos, fmt.Sprintf(format, args...))
}

// ReportFile records a finding against a file as a whole (line 1),
// used when the offense is the file set itself (a missing twin).
func (p *DirPass) ReportFile(name, msg string) {
	if f, ok := p.Files[name]; ok {
		p.report(f.Package, msg)
		return
	}
	p.report(token.NoPos, name+": "+msg)
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
		AsmPair,
		MustWait,
		Lifecycle,
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
