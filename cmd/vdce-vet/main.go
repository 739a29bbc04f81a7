// Command vdce-vet runs the repo's domain-specific static analyzers: the
// mechanical enforcement of the determinism, float-exactness and lock
// discipline invariants everything else in this reproduction leans on —
// plus the interprocedural tier (detflow, lockorder) built on the
// call-graph engine. See internal/lint for the rules and the //vdce:ignore
// suppression convention.
//
// Usage:
//
//	vdce-vet [flags] [packages]
//
// With no packages it analyzes ./... . Exit codes are distinct so CI can
// tell a dirty tree from a broken driver: 0 = clean, 1 = findings remain,
// 2 = driver error (bad flags, unknown rule, load or type-check failure).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/lint"
)

// The exit-code contract (pinned by TestExitCodes, consumed by CI).
const (
	exitClean    = 0
	exitFindings = 1 // at least one unsuppressed finding
	exitError    = 2 // driver failure: flags, load, type-check, or encoding
)

// jsonFinding is the machine-readable wire form of one finding: flat
// position fields (no nested token.Position internals leak into the
// contract) plus a ready-to-paste suppression template.
type jsonFinding struct {
	Rule    string `json:"rule"`
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Message string `json:"message"`
	// Suppress is the directive that would waive this finding, with the
	// mandatory reason left as a placeholder.
	Suppress string `json:"suppress"`
}

func toJSON(findings []lint.Finding) []jsonFinding {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			Rule:     f.Rule,
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Col:      f.Pos.Column,
			Message:  f.Msg,
			Suppress: fmt.Sprintf("//vdce:ignore %s <reason>", f.Rule),
		})
	}
	return out
}

func emitJSON(stdout, stderr io.Writer, v any) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(stderr, "vdce-vet: %v\n", err)
		return exitError
	}
	return exitClean
}

// githubEscape applies the workflow-command escaping rules to a message.
func githubEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vdce-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	rules := fs.String("rules", "", "comma-separated analyzer subset (default: all)")
	asJSON := fs.Bool("json", false, "emit machine-readable JSON")
	github := fs.Bool("github", false, "emit findings as GitHub ::error annotations")
	inventory := fs.Bool("inventory", false, "list every //vdce:ignore directive instead of running analyzers")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: vdce-vet [flags] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return exitError
	}

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return exitClean
	}
	if *rules != "" {
		want := map[string]bool{}
		for _, r := range strings.Split(*rules, ",") {
			want[strings.TrimSpace(r)] = true
		}
		var picked []*lint.Analyzer
		for _, a := range analyzers {
			if want[a.Name] {
				picked = append(picked, a)
				delete(want, a.Name)
			}
		}
		if len(want) > 0 {
			unknown := make([]string, 0, len(want))
			for r := range want {
				unknown = append(unknown, r)
			}
			sort.Strings(unknown)
			fmt.Fprintf(stderr, "vdce-vet: unknown rule(s): %s (registered: %s)\n",
				strings.Join(unknown, ", "), strings.Join(lint.RuleNames(), ", "))
			return exitError
		}
		analyzers = picked
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	pkgs, err := lint.Load("", patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "vdce-vet: %v\n", err)
		return exitError
	}

	if *inventory {
		dirs := lint.Inventory(pkgs)
		if *asJSON {
			return emitJSON(stdout, stderr, dirs)
		}
		for _, d := range dirs {
			scope := ""
			if d.FileWide {
				scope = " (file-wide)"
			}
			fmt.Fprintf(stdout, "%s:%d: %s%s — %s\n", d.File, d.Line, strings.Join(d.Rules, ","), scope, d.Reason)
		}
		fmt.Fprintf(stderr, "vdce-vet: %d suppression(s) in %d package(s)\n", len(dirs), len(pkgs))
		return exitClean
	}

	findings := lint.Run(pkgs, analyzers)
	switch {
	case *asJSON:
		if code := emitJSON(stdout, stderr, toJSON(findings)); code != exitClean {
			return code
		}
	case *github:
		for _, f := range findings {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d,title=vdce-vet %s::%s\n",
				f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Rule, githubEscape(f.Msg))
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "vdce-vet: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		return exitFindings
	}
	return exitClean
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
