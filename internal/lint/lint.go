// Package lint is cadb's project-specific static analyzer: a vet-style
// suite, built on stdlib go/parser + go/ast + go/types only, that
// mechanically enforces the invariants every headline number of this
// reproduction rests on — byte-identical recommendations at any
// Parallelism, release-on-every-path for pinned pages, and I/O counters
// mutated only at accounting chokepoints. See the check files (maporder.go,
// release.go, floatorder.go, ioaccount.go, closecheck.go) for what each one
// guards and why.
//
// Findings can be suppressed per line with a directive comment on the
// flagged line or the line directly above it:
//
//	//cadb:lint-ignore <check> <reason>
//
// The reason is mandatory: a suppression without one is itself reported.
package lint

import (
	"fmt"
	"go/token"
	"sort"
)

// A Finding is one rule violation at a position.
type Finding struct {
	Check   string         `json:"check"`
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Col     int            `json:"col"`
	Message string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Check, f.Message)
}

// Check is one analyzer of the suite.
type Check struct {
	ID  string
	Doc string
	run func(*pass)
}

// Checks returns the full suite in stable order.
func Checks() []Check {
	return []Check{
		{"maporder", "map iteration must not feed order-sensitive accumulation in determinism-critical packages", runMapOrder},
		{"release", "release/unpin closures returned by page fetches must be invoked on every path", runRelease},
		{"floatorder", "parallel fan-out bodies must write per-slot results, never accumulate in arrival order", runFloatOrder},
		{"ioaccount", "IOStats counter fields may be mutated only inside allowlisted chokepoint functions", runIOAccount},
		{"closecheck", "errors from Close methods must not be silently dropped in non-test code", runCloseCheck},
	}
}

// Config selects what to analyze and parameterizes the checks. Zero values
// mean "the real cadb module defaults"; tests override them to point the
// checks at fixture packages.
type Config struct {
	// Dir is any directory inside the module; go.mod is located upward.
	// Empty means the current directory.
	Dir string

	// Checks restricts the suite to the given IDs. Nil means every check.
	Checks []string

	// DeterminismPkgs are the import paths where maporder applies — the
	// packages whose outputs must be byte-identical run to run.
	DeterminismPkgs []string

	// IOChokepoints are the qualified names (pkgpath.Func,
	// pkgpath.(*Recv).Method) of the only functions allowed to mutate
	// storage.IOStats counter fields.
	IOChokepoints []string

	// FanoutFuncs are the qualified names of slot-parallel fan-out
	// primitives whose body closures floatorder inspects.
	FanoutFuncs []string
}

// Defaults for the real module. These lists are part of the invariant
// documentation: adding an entry is a reviewed decision, not a config tweak.
var (
	// DefaultDeterminismPkgs hold the byte-identical-recommendation
	// invariant: enumeration, costing, size estimation and sizing.
	DefaultDeterminismPkgs = []string{
		"cadb/internal/core",
		"cadb/internal/optimizer",
		"cadb/internal/sizeest",
		"cadb/internal/sizing",
	}

	// DefaultIOChokepoints are the accounting chokepoints: every
	// PageReads/PoolHits/... mutation outside these is a smuggled counter.
	DefaultIOChokepoints = []string{
		"cadb/internal/storage.(*IOStats).Add",
		"cadb/internal/storage.(*Segment).FetchPage",
		"cadb/internal/storage.(*Prefetcher).Close",
		"cadb/internal/exec.(*runState).readPage",
		"cadb/internal/index.(*Cursor).NextBatch",
	}

	// DefaultFanoutFuncs fan a closure over worker goroutines with the
	// write-your-own-slot contract.
	DefaultFanoutFuncs = []string{
		"cadb/internal/par.For",
	}
)

func (c *Config) fill() {
	if c.Dir == "" {
		c.Dir = "."
	}
	if c.DeterminismPkgs == nil {
		c.DeterminismPkgs = DefaultDeterminismPkgs
	}
	if c.IOChokepoints == nil {
		c.IOChokepoints = DefaultIOChokepoints
	}
	if c.FanoutFuncs == nil {
		c.FanoutFuncs = DefaultFanoutFuncs
	}
}

func (c *Config) checkEnabled(id string) bool {
	if c.Checks == nil {
		return true
	}
	for _, want := range c.Checks {
		if want == id {
			return true
		}
	}
	return false
}

// pass is the per-package context handed to each check.
type pass struct {
	mod      *Module
	cfg      *Config
	pkg      *Package
	findings *[]Finding
}

func (p *pass) reportf(pos token.Pos, check, format string, args ...any) {
	position := p.mod.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		Check:   check,
		Pos:     position,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
	})
}

// Run loads the module containing cfg.Dir, analyzes every package with the
// enabled checks, applies suppression directives, and returns the surviving
// findings sorted by position.
func Run(cfg Config) ([]Finding, error) {
	cfg.fill()
	mod, err := LoadModule(cfg.Dir)
	if err != nil {
		return nil, err
	}
	pkgs, err := mod.Packages()
	if err != nil {
		return nil, err
	}
	return RunPackages(&cfg, mod, pkgs)
}

// RunPackages analyzes the given packages (already loaded through mod) with
// the enabled checks. Exposed so tests can aim individual checks at fixture
// packages.
func RunPackages(cfg *Config, mod *Module, pkgs []*Package) ([]Finding, error) {
	cfg.fill()
	var findings []Finding
	for _, pkg := range pkgs {
		var pkgFindings []Finding
		p := &pass{mod: mod, cfg: cfg, pkg: pkg, findings: &pkgFindings}
		for _, c := range Checks() {
			if cfg.checkEnabled(c.ID) {
				c.run(p)
			}
		}
		dirs, malformed := directivesFor(mod, pkg)
		pkgFindings = append(pkgFindings, malformed...)
		findings = append(findings, filterSuppressed(pkgFindings, dirs)...)
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Check < b.Check
	})
	return findings, nil
}
