// Package lint is vdce-vet's analyzer suite: domain-specific static
// analysis that mechanically enforces the invariants the reproduction's
// claims rest on — deterministic iteration wherever output is observable,
// bit-exact float comparison only where it is the point, and lock
// discipline on mutex-guarded state.
//
// Analyzers are deliberately conservative: they flag everything they cannot
// prove safe and rely on an explicit, reviewable suppression to waive a
// finding. A suppression is a comment of the form
//
//	//vdce:ignore <rule>[,<rule>...] <reason>
//
// on the offending line or the line directly above it, or
//
//	//vdce:ignore-file <rule>[,<rule>...] <reason>
//
// anywhere in a file to waive a rule file-wide. The reason is mandatory:
// a suppression without one is itself a finding.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// An Analyzer is one named rule. Run analyzes one type-checked package at a
// time; RunProgram analyzes the whole load at once through the
// interprocedural tier (call graph + value-flow summaries). An analyzer
// sets exactly one of the two.
type Analyzer struct {
	Name       string
	Doc        string // one-line invariant statement, shown by vdce-vet -list
	Run        func(*Pass)
	RunProgram func(*ProgramPass)
}

// A Finding is one rule violation at a position.
type Finding struct {
	Rule string
	Pos  token.Position
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Rule, f.Msg)
}

// A Pass carries one analyzer's run over one package.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Rule: p.Analyzer.Name,
		Pos:  p.Pkg.Fset.Position(pos),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil if the checker did not record one.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// A ProgramPass carries one interprocedural analyzer's run over the whole
// load.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program
	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Rule: p.Analyzer.Name,
		Pos:  p.Prog.fset().Position(pos),
		Msg:  fmt.Sprintf(format, args...),
	})
}

// The suppression rule name: malformed //vdce:ignore comments are reported
// under it so the "every suppression carries a reason" policy is itself
// machine-checked.
const suppressionRule = "suppression"

const (
	ignoreDirective     = "//vdce:ignore "
	ignoreFileDirective = "//vdce:ignore-file "
)

type suppression struct {
	rules     []string
	line      int
	endLine   int // last line covered: the directive's node span (see below)
	fileWide  bool
	hasReason bool
	reason    string
	pos       token.Pos
	file      string
}

func (s suppression) covers(rule string, f Finding) bool {
	if f.Pos.Filename != s.file {
		return false
	}
	found := false
	for _, r := range s.rules {
		if r == rule {
			found = true
		}
	}
	if !found {
		return false
	}
	return s.fileWide || (f.Pos.Line >= s.line && f.Pos.Line <= s.endLine)
}

// parseSuppressions scans a file's comments for //vdce:ignore directives.
//
// A directive attaches to the node that starts on its own line (trailing
// comment) or on the line directly below (comment-above), and covers that
// node's *entire* source span: a //vdce:ignore above a three-line call
// suppresses findings reported against any of the three lines, not just the
// first. With no node starting there, coverage falls back to the directive
// line and the next.
func parseSuppressions(fset *token.FileSet, f *ast.File) []suppression {
	var out []suppression
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text, fileWide := "", false
			switch {
			case strings.HasPrefix(c.Text, ignoreFileDirective):
				text, fileWide = c.Text[len(ignoreFileDirective):], true
			case c.Text == strings.TrimSpace(ignoreFileDirective):
				text, fileWide = "", true
			case strings.HasPrefix(c.Text, ignoreDirective):
				text = c.Text[len(ignoreDirective):]
			case c.Text == strings.TrimSpace(ignoreDirective):
				text = ""
			default:
				continue
			}
			fields := strings.Fields(text)
			s := suppression{
				fileWide: fileWide,
				line:     fset.Position(c.Pos()).Line,
				pos:      c.Pos(),
				file:     fset.Position(c.Pos()).Filename,
			}
			s.endLine = s.line + 1
			if len(fields) > 0 {
				s.rules = strings.Split(fields[0], ",")
				s.hasReason = len(fields) > 1
				s.reason = strings.Join(fields[1:], " ")
			}
			out = append(out, s)
		}
	}
	if len(out) == 0 {
		return nil
	}
	// Extend each directive to the full span of its node: the deepest walk
	// finds every node starting on the directive's line or the next one and
	// takes the furthest end line among them.
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || n == f {
			return true
		}
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if end <= start {
			return true
		}
		for i := range out {
			s := &out[i]
			if (start == s.line || start == s.line+1) && end > s.endLine {
				s.endLine = end
			}
		}
		return true
	})
	return out
}

// Directive is one //vdce:ignore occurrence, as surfaced by Inventory: the
// machine-readable waiver ledger (vdce-vet -inventory, the CI lint summary).
type Directive struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	FileWide bool     `json:"fileWide"`
	Rules    []string `json:"rules"`
	Reason   string   `json:"reason"`
}

// Inventory lists every suppression directive in the packages, sorted by
// file and line. Malformed directives are included (empty Rules or Reason):
// the inventory reports what is written, Run reports what is wrong with it.
func Inventory(pkgs []*Package) []Directive {
	var out []Directive
	for _, pkg := range pkgs {
		for _, sf := range pkg.Files {
			for _, s := range parseSuppressions(pkg.Fset, sf.AST) {
				out = append(out, Directive{
					File:     s.file,
					Line:     s.line,
					FileWide: s.fileWide,
					Rules:    s.rules,
					Reason:   s.reason,
				})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].File != out[j].File {
			return out[i].File < out[j].File
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// Run executes the analyzers over the packages, applies suppressions, and
// returns the surviving findings sorted by position. Malformed suppressions
// (no rule, no reason, or an unknown rule name) are reported as findings of
// the "suppression" pseudo-rule, so `vdce-vet` clean means every waiver in
// the tree names a real rule and carries a reason.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	known := map[string]bool{}
	for _, a := range Analyzers() {
		known[a.Name] = true
	}

	var findings []Finding
	var sups []suppression
	for _, pkg := range pkgs {
		for _, sf := range pkg.Files {
			sups = append(sups, parseSuppressions(pkg.Fset, sf.AST)...)
		}
	}
	fset := token.NewFileSet()
	if len(pkgs) > 0 {
		fset = pkgs[0].Fset
	}
	for _, s := range sups {
		if len(s.rules) == 0 {
			findings = append(findings, Finding{
				Rule: suppressionRule,
				Pos:  fset.Position(s.pos),
				Msg:  "//vdce:ignore needs a rule name and a reason",
			})
			continue
		}
		for _, r := range s.rules {
			if !known[r] {
				findings = append(findings, Finding{
					Rule: suppressionRule,
					Pos:  fset.Position(s.pos),
					Msg:  fmt.Sprintf("//vdce:ignore names unknown rule %q (known: %s)", r, strings.Join(RuleNames(), ", ")),
				})
			}
		}
		if !s.hasReason {
			findings = append(findings, Finding{
				Rule: suppressionRule,
				Pos:  fset.Position(s.pos),
				Msg:  fmt.Sprintf("//vdce:ignore %s needs a reason", strings.Join(s.rules, ",")),
			})
		}
	}

	var raw []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, findings: &raw}
			a.Run(pass)
		}
	}
	var prog *Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = BuildProgram(pkgs)
		}
		a.RunProgram(&ProgramPass{Analyzer: a, Prog: prog, findings: &raw})
	}
	for _, f := range raw {
		suppressed := false
		for _, s := range sups {
			if s.covers(f.Rule, f) {
				suppressed = true
				break
			}
		}
		if !suppressed {
			findings = append(findings, f)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	// Deduplicate: overlapping analyzers may land on the same position.
	out := findings[:0]
	for i, f := range findings {
		if i == 0 || f != findings[i-1] {
			out = append(out, f)
		}
	}
	return out
}

// Analyzers returns the full suite with repo-default configuration: the
// per-package tier (maporder, floateq, lockdiscipline) and the
// interprocedural tier (detflow, lockorder) built on the call-graph engine.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		MapOrder(),
		FloatEq(),
		LockDiscipline(),
		DetFlow(),
		LockOrder(),
	}
}

// RuleNames returns every rule a //vdce:ignore directive (or a -rules
// filter) may name — the analyzers plus the "suppression" pseudo-rule —
// sorted.
func RuleNames() []string {
	var out []string
	for _, a := range Analyzers() {
		out = append(out, a.Name)
	}
	out = append(out, suppressionRule)
	sort.Strings(out)
	return out
}
