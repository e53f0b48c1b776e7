// Package lint is the repository's domain-specific static analyzer. It
// mechanically enforces the two invariants the package documentation
// promises and that no general-purpose tool checks:
//
//   - Reproducibility: every randomized result is derived from an explicit
//     seed (no global math/rand state, no time-based seeding) and no output
//     depends on Go's randomized map iteration order.
//   - Exactness: the Theorem 2-4/7-9 throughput figures are *big.Rat values
//     compared with Cmp and converted to float64 only inside the sanctioned
//     display helpers.
//
// The driver (cmd/ttdclint) loads every package in the module using only
// the standard library — go/parser for syntax, go/types for semantics, and
// gc export data via `go list -export` (read by the go/importer "gc"
// importer) for standard-library dependencies — so go.mod keeps its
// zero-dependency guarantee. Module packages are type-checked from source,
// since the analyzers need their syntax trees. Loading therefore needs the
// go command that built the driver on PATH.
//
// Findings can be suppressed with a directive on, or on the line above,
// the offending line:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// A directive without a written reason is itself a finding.
//
// Functions opt into the zero-allocation warm-path contract with a
// directive in their doc comment, enforced by the allocflow, boxing, and
// growloop analyzers (see hotpath.go and alloc.go):
//
//	//ttdc:hotpath <reason>
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding, addressed by position within the loader's
// shared FileSet.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the canonical `file:line: analyzer: message` form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Analyzer, d.Message)
}

// An Analyzer inspects one type-checked package unit and reports findings.
// Run must be deterministic: implementations walk the AST in source order
// and never range over maps.
type Analyzer struct {
	// Name is the identifier used in diagnostics and //lint:ignore
	// directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer protects.
	Doc string
	// Run reports raw findings for pkg; suppression is applied by Lint.
	Run func(pkg *Package) []Diagnostic
}

// All is the full analyzer suite, in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		AllocFlow,
		AtomicMix,
		Boxing,
		CtxCancel,
		DetFlow,
		DroppedErr,
		FloatFlow,
		GrowLoop,
		MapOrder,
		MutexCopy,
		PoolEscape,
		PoolPut,
		RatCompare,
		RatFloat,
		SeededRand,
		WaitPair,
		WallTime,
	}
}

// Result is the outcome of one lint run: the surviving findings plus the
// count of findings silenced by //lint:ignore directives (the driver
// reports it so suppressions stay visible instead of vanishing).
type Result struct {
	Findings   []Diagnostic
	Suppressed int
}

// Lint runs every analyzer over every package, applies //lint:ignore
// suppressions, and returns the surviving findings sorted by position.
// Malformed directives (missing analyzer name or reason) are reported as
// findings of the pseudo-analyzer "ignore".
func Lint(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	return LintAll(pkgs, analyzers).Findings
}

// LintAll is Lint plus the suppression count. Before any analyzer runs it
// builds the module-wide call-graph Program over all units, so the
// interprocedural analyzers (detflow, floatflow, poolescape) see summaries
// for every function of the run, not just the unit being reported on.
func LintAll(pkgs []*Package, analyzers []*Analyzer) Result {
	prog := BuildProgram(pkgs)
	for _, pkg := range pkgs {
		pkg.Prog = prog
	}
	var res Result
	for _, pkg := range pkgs {
		dirs := collectIgnores(pkg)
		for _, d := range dirs {
			if d.bad != "" {
				res.Findings = append(res.Findings, Diagnostic{
					Pos:      d.pos,
					Analyzer: "ignore",
					Message:  d.bad,
				})
			}
		}
		// Directive hygiene for //ttdc:hotpath mirrors //lint:ignore:
		// malformed or dangling contracts are findings of the pseudo-
		// analyzer "hotpath" (see hotpath.go), never silently dropped.
		res.Findings = append(res.Findings, collectHotpathIssues(pkg)...)
		for _, a := range analyzers {
			for _, diag := range a.Run(pkg) {
				if suppressed(dirs, diag) {
					res.Suppressed++
				} else {
					res.Findings = append(res.Findings, diag)
				}
			}
		}
	}
	sort.Slice(res.Findings, func(i, j int) bool {
		a, b := res.Findings[i], res.Findings[j]
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
	return res
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers []string
	bad       string // non-empty if the directive is malformed
}

const ignorePrefix = "lint:ignore"

// parseIgnoreDirective parses the raw text of one comment. ok reports
// whether the comment is a lint:ignore directive at all: it must start
// with exactly `//lint:ignore` followed by the end of the comment or a
// space or tab — `//lint:ignorewalltime` is an ordinary comment, not a
// directive that silently suppresses walltime. When ok, exactly one of
// analyzers (well-formed directive) or bad (the malformed-directive
// finding message) is non-empty.
func parseIgnoreDirective(text string) (analyzers []string, bad string, ok bool) {
	rest, ok := strings.CutPrefix(text, "//"+ignorePrefix)
	if !ok {
		return nil, "", false
	}
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, "", false
	}
	fields := strings.Fields(rest)
	switch {
	case len(fields) == 0:
		return nil, "lint:ignore directive missing analyzer name and reason", true
	case len(fields) == 1:
		return nil, fmt.Sprintf("lint:ignore %s has no written reason; every suppression must carry one", fields[0]), true
	}
	return strings.Split(fields[0], ","), "", true
}

// collectIgnores parses every //lint:ignore directive in the package.
func collectIgnores(pkg *Package) []ignoreDirective {
	var dirs []ignoreDirective
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				analyzers, bad, ok := parseIgnoreDirective(c.Text)
				if !ok {
					continue
				}
				dirs = append(dirs, ignoreDirective{
					pos:       pkg.Fset.Position(c.Pos()),
					analyzers: analyzers,
					bad:       bad,
				})
			}
		}
	}
	return dirs
}

// suppressed reports whether diag is covered by a well-formed directive in
// the same file, on the same line or the line immediately above.
func suppressed(dirs []ignoreDirective, diag Diagnostic) bool {
	for _, d := range dirs {
		if d.bad != "" || d.pos.Filename != diag.Pos.Filename {
			continue
		}
		if d.pos.Line != diag.Pos.Line && d.pos.Line != diag.Pos.Line-1 {
			continue
		}
		for _, name := range d.analyzers {
			if name == diag.Analyzer {
				return true
			}
		}
	}
	return false
}

// --- shared type helpers used by the analyzers ---

// isBigRatPtr reports whether t is *math/big.Rat.
func isBigRatPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	return ok && isNamed(p.Elem(), "math/big", "Rat")
}

// isNamed reports whether t (after unaliasing) is the named type path.name.
func isNamed(t types.Type, path, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == path && obj.Name() == name
}

// funcObj resolves the called package-level function (or method) behind a
// call expression, or nil.
func funcObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// isPkgFunc reports whether obj is the package-level function path.name.
func isPkgFunc(obj types.Object, path, name string) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Pkg() != nil && fn.Pkg().Path() == path && fn.Name() == name && fn.Type().(*types.Signature).Recv() == nil
}

// enclosingFuncName returns the name of the innermost function declaration
// in f whose body spans pos, or "".
func enclosingFuncName(f *ast.File, pos token.Pos) string {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Body.Pos() <= pos && pos < fd.Body.End() {
			return fd.Name.Name
		}
	}
	return ""
}

// enclosingFuncBody returns the body of the innermost function declaration
// in f spanning pos, or nil.
func enclosingFuncBody(f *ast.File, pos token.Pos) *ast.BlockStmt {
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		if fd.Body.Pos() <= pos && pos < fd.Body.End() {
			return fd.Body
		}
	}
	return nil
}
