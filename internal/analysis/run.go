package analysis

import (
	"go/token"
	"path/filepath"
)

// Config configures a whole-tree run.
type Config struct {
	// Root is the module root to analyze.
	Root string
	// Analyzers to run; nil means All().
	Analyzers []*Analyzer
	// Dirs restricts the run to these directories (absolute or
	// root-relative); nil means every Go directory under Root.
	Dirs []string
}

// Run analyzes the tree and returns the pragma-filtered findings in
// position order. A non-nil error means the tree could not be loaded
// (parse or type error) — analyzers never run over broken input.
func Run(cfg Config) ([]Finding, error) {
	loader, err := NewLoader(cfg.Root)
	if err != nil {
		return nil, err
	}
	analyzers := cfg.Analyzers
	if analyzers == nil {
		analyzers = All()
	}
	dirs := cfg.Dirs
	if dirs == nil {
		dirs, err = GoDirs(cfg.Root)
		if err != nil {
			return nil, err
		}
	}
	var findings []Finding
	sup := suppressions{}
	for _, dir := range dirs {
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(cfg.Root, dir)
		}
		fs, err := analyzeDir(loader, dir, analyzers, sup)
		if err != nil {
			return nil, err
		}
		findings = append(findings, fs...)
	}
	findings = filterSuppressed(findings, sup)
	sortFindings(findings)
	return findings, nil
}

// analyzeDir runs every analyzer over one directory, accumulating that
// directory's pragmas into sup and returning raw (unfiltered)
// findings.
func analyzeDir(loader *Loader, dir string, analyzers []*Analyzer, sup suppressions) ([]Finding, error) {
	rel, err := filepath.Rel(loader.ModuleRoot, dir)
	if err != nil {
		return nil, err
	}
	path := loader.ModulePath
	if rel != "." {
		path = loader.ModulePath + "/" + filepath.ToSlash(rel)
	}

	allFiles, err := loader.ParseDirAll(dir)
	if err != nil {
		return nil, err
	}
	var findings []Finding
	record := func(analyzer string) func(token.Pos, string) {
		return func(pos token.Pos, msg string) {
			findings = append(findings, Finding{Pos: loader.Fset.Position(pos), Analyzer: analyzer, Message: msg})
		}
	}
	// Pragmas come from every build variant of the directory, so a
	// suppression inside a purego file works on an amd64 host too.
	for _, f := range allFiles {
		for _, pr := range parsePragmas(f) {
			if pr.bad != "" {
				findings = append(findings, Finding{
					Pos:      loader.Fset.Position(pr.pos),
					Analyzer: "pragma",
					Message:  pr.bad,
				})
				continue
			}
			sup.add(loader.Fset, pr)
		}
	}

	typed, err := loader.LoadDir(dir, path)
	if err != nil {
		return nil, err
	}
	for _, a := range analyzers {
		a.Run(&Pass{
			Fset:   loader.Fset,
			Files:  typed.Files,
			Pkg:    typed.Pkg,
			Info:   typed.Info,
			Path:   path,
			report: record(a.Name),
		})
	}
	return findings, nil
}

// filterSuppressed drops findings covered by a pragma. Pragma-analyzer
// findings (malformed pragmas) are never suppressible.
func filterSuppressed(fs []Finding, sup suppressions) []Finding {
	out := fs[:0]
	for _, f := range fs {
		if f.Analyzer != "pragma" && sup.covers(f) {
			continue
		}
		out = append(out, f)
	}
	return out
}
