// Core analyzer types: checks, passes, diagnostics, and the runner that
// applies the registered checks to loaded packages and then filters the
// findings through //lint:ignore suppressions.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by file:line:col.
type Diagnostic struct {
	Pos     token.Position
	Check   string
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
}

// Check is one analyzer: a name (used in diagnostics and //lint:ignore
// directives), a one-line doc string, and at least one run function —
// Run is invoked once per package, RunModule once per loaded module with
// every package (and the shared call graph) in view. A check may have
// both.
type Check struct {
	Name      string
	Doc       string
	Run       func(*Pass)
	RunModule func(*ModulePass)
}

// Pass hands a check one type-checked package plus reporting plumbing.
type Pass struct {
	Fset   *token.FileSet
	Pkg    *Package
	Config *Config
	report func(Diagnostic)
}

// Reportf records a diagnostic for the running check at pos.
func (p *Pass) Reportf(check *Check, pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:     p.Fset.Position(pos),
		Check:   check.Name,
		Message: fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when type-checking could not
// resolve it (checks degrade gracefully on partial information).
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if tv, ok := p.Pkg.Info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

// ImportedPackage resolves an identifier used as a package qualifier
// (the "time" in time.Now) to the imported package's path, or "".
func (p *Pass) ImportedPackage(id *ast.Ident) string {
	if obj, ok := p.Pkg.Info.Uses[id].(*types.PkgName); ok {
		return obj.Imported().Path()
	}
	return ""
}

// trimTestSuffix maps an external-test unit path (repro/foo.test) back to
// its base package path for config lookups.
func trimTestSuffix(path string) string { return strings.TrimSuffix(path, ".test") }

// SimPackage reports whether the pass's package is simulation code — i.e.
// subject to the determinism checks. Everything in the module is, except
// the analyzer itself (Config.ExemptPackages).
func (p *Pass) SimPackage() bool {
	path := trimTestSuffix(p.Pkg.Path)
	for _, ex := range p.Config.ExemptPackages {
		if path == ex || strings.HasPrefix(path, ex+"/") {
			return false
		}
	}
	return true
}

// Config scopes the checks to this repository's layout.
type Config struct {
	// ExemptPackages are import-path prefixes where no check applies —
	// the analyzer's own packages, which are tooling, not simulation.
	ExemptPackages []string
	// GoroutineAllow maps an import path to file basenames allowed to
	// contain go statements (the approved worker pool).
	GoroutineAllow map[string][]string
	// FloatEqAllowFuncs maps an import path to function names allowed to
	// compare floats exactly (the approved epsilon helpers).
	FloatEqAllowFuncs map[string][]string
	// PoolAPIs lists the freelist lifecycles poolsafety tracks: an
	// acquire function returning a pooled pointer and the release that
	// returns it to the pool.
	PoolAPIs []PoolAPI
}

// PoolAPI names one acquire/release pair of a freelist, scoped to the
// package that defines it.
type PoolAPI struct {
	Pkg     string // import path defining the pair
	Acquire string // function or method returning a pooled pointer
	Release string // function or method returning the pointer to the pool
}

// DefaultConfig returns the configuration for this repository: everything
// is simulation code except the linter; goroutines only in the
// experiment worker pool; exact float comparison only inside the stats
// epsilon helper.
func DefaultConfig() *Config {
	return &Config{
		ExemptPackages: []string{"repro/internal/lint", "repro/cmd/qlint"},
		GoroutineAllow: map[string][]string{
			"repro/internal/experiment": {"parallel.go"},
		},
		FloatEqAllowFuncs: map[string][]string{
			"repro/internal/stats": {"ApproxEqual"},
			// The metrics registry compares histogram bucket boundaries
			// for identity (configuration literals, not computed values),
			// which is exactly what == is for — no per-site //lint:ignore
			// noise required.
			"repro/internal/obs": {"boundsEqual"},
		},
		PoolAPIs: []PoolAPI{
			{Pkg: "repro/internal/engine", Acquire: "AcquireQuery", Release: "Recycle"},
			// The rig-wide QueryPool behind AcquireQuery/Recycle.
			{Pkg: "repro/internal/engine", Acquire: "Acquire", Release: "Recycle"},
			{Pkg: "repro/internal/patroller", Acquire: "acquireEntry", Release: "releaseEntry"},
		},
	}
}

// DefaultChecks returns every check, in a stable order.
func DefaultChecks() []*Check {
	return []*Check{
		WallclockCheck,
		GlobalRandCheck,
		MapOrderCheck,
		GoroutineCheck,
		FloatEqCheck,
		PoolSafetyCheck,
		CkptCoverCheck,
		HotAllocCheck,
	}
}

// CheckByName returns the check with the given name, or nil.
func CheckByName(checks []*Check, name string) *Check {
	for _, c := range checks {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// maxTypeErrors caps how many type-check errors are surfaced per package,
// so one broken file does not flood the output.
const maxTypeErrors = 10

// Runner applies a set of checks to loaded packages.
type Runner struct {
	Checks []*Check
	Config *Config
}

// NewRunner builds a runner; nil arguments select the defaults.
func NewRunner(checks []*Check, cfg *Config) *Runner {
	if checks == nil {
		checks = DefaultChecks()
	}
	if cfg == nil {
		cfg = DefaultConfig()
	}
	return &Runner{Checks: checks, Config: cfg}
}

// Run applies every check to every package, resolves //lint:ignore
// suppressions (invalid or unused directives become diagnostics
// themselves), and returns the surviving findings sorted by position.
func (r *Runner) Run(res *Result) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range res.Pkgs {
		for i, err := range pkg.TypeErrors {
			if i == maxTypeErrors {
				break
			}
			diags = append(diags, typeErrorDiag(res.Fset, err))
		}
		pass := &Pass{
			Fset:   res.Fset,
			Pkg:    pkg,
			Config: r.Config,
			report: func(d Diagnostic) { diags = append(diags, d) },
		}
		for _, c := range r.Checks {
			if c.Run != nil {
				c.Run(pass)
			}
		}
	}
	mp := &ModulePass{
		Fset:   res.Fset,
		Res:    res,
		Config: r.Config,
		report: func(d Diagnostic) { diags = append(diags, d) },
	}
	for _, c := range r.Checks {
		if c.RunModule != nil {
			c.RunModule(mp)
		}
	}
	diags = applySuppressions(res, r.Checks, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Check < b.Check
	})
	return diags
}

// typeErrorDiag converts a go/types error into a diagnostic under the
// reserved "typecheck" name.
func typeErrorDiag(fset *token.FileSet, err error) Diagnostic {
	d := Diagnostic{Check: "typecheck", Message: err.Error()}
	if te, ok := err.(types.Error); ok {
		d.Pos = te.Fset.Position(te.Pos)
		d.Message = te.Msg
	}
	return d
}

// inspectFiles walks every non-test file of the pass's package (the
// determinism invariants constrain simulation code, not its tests).
func inspectFiles(p *Pass, visit func(f *File, n ast.Node) bool) {
	for _, f := range p.Pkg.Files {
		if f.Test {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool { return visit(f, n) })
	}
}
