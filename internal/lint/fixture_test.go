package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Fixture tests: each directory under testdata/src holds a tiny package with
// `// want "regexp"` comments on the lines where an analyzer must report, and
// deliberately clean code where it must stay silent. A line may carry several
// quoted regexps when distinct findings land on it. Directive-hygiene findings
// cannot carry want comments (a want cannot share the directive's own line),
// so TestSuppressionHygiene states its expectations directly.

// wantTailRE matches the trailing `// want "a" "b"` clause of a fixture line.
var wantTailRE = regexp.MustCompile(`// want ((?:"(?:[^"\\]|\\.)*"\s*)+)$`)

// wantArgRE pulls the individual quoted regexps out of the clause.
var wantArgRE = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

type wantKey struct {
	base string // file basename; findings may carry relative or absolute paths
	line int
}

type want struct {
	re      *regexp.Regexp
	matched bool
}

func parseWants(t *testing.T, dir string) map[wantKey][]*want {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	wants := map[wantKey][]*want{}
	for _, name := range names {
		f, err := os.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			m := wantTailRE.FindStringSubmatch(sc.Text())
			if m == nil {
				continue
			}
			key := wantKey{base: filepath.Base(name), line: line}
			for _, arg := range wantArgRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(arg[1])
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", name, line, arg[1], err)
				}
				wants[key] = append(wants[key], &want{re: re})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s declares no wants; a fixture must hold at least one true positive", dir)
	}
	return wants
}

// fixtureLoader is shared across every fixture test in the process: the
// loader caches `go list` metadata and type-checked imports by import path,
// so the standard-library resolution work happens once instead of once per
// analyzer fixture.
var (
	fixtureLoaderMu sync.Mutex
	fixtureLoader   = NewLoader("")
)

func loadFixture(t *testing.T, dir string) *Package {
	t.Helper()
	fixtureLoaderMu.Lock()
	defer fixtureLoaderMu.Unlock()
	pkg, err := fixtureLoader.LoadDir(dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	return pkg
}

func runFixture(t *testing.T, dir string, analyzers ...*Analyzer) []Finding {
	t.Helper()
	return Run([]*Package{loadFixture(t, dir)}, analyzers)
}

// checkFixture runs the analyzers over dir and requires an exact bijection
// between findings and want comments.
func checkFixture(t *testing.T, dir string, analyzers ...*Analyzer) {
	t.Helper()
	findings := runFixture(t, dir, analyzers...)
	wants := parseWants(t, dir)

	var errs []string
	for _, f := range findings {
		key := wantKey{base: filepath.Base(f.Pos.Filename), line: f.Pos.Line}
		ok := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(f.Msg) {
				w.matched = true
				ok = true
				break
			}
		}
		if !ok {
			errs = append(errs, fmt.Sprintf("unexpected finding: %s", f))
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				errs = append(errs, fmt.Sprintf("%s:%d: want %q matched no finding", key.base, key.line, w.re))
			}
		}
	}
	if len(errs) > 0 {
		sort.Strings(errs)
		t.Errorf("fixture %s:\n  %s", dir, strings.Join(errs, "\n  "))
	}
}

func TestMapOrderFixture(t *testing.T) {
	checkFixture(t, filepath.Join("testdata", "src", "maporder"), MapOrder())
}

func TestFloatEqFixture(t *testing.T) {
	checkFixture(t, filepath.Join("testdata", "src", "floateq"), FloatEq())
}

func TestLockDisciplineFixture(t *testing.T) {
	checkFixture(t, filepath.Join("testdata", "src", "lockdiscipline"), LockDiscipline())
}

func TestDetFlowFixture(t *testing.T) {
	checkFixture(t, filepath.Join("testdata", "src", "detflow"), DetFlow())
}

func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, filepath.Join("testdata", "src", "lockorder"), LockOrder())
}

// TestSuppressionSpanFixture pins the span rule: a directive above a
// multi-line node waives findings on every line of the node, and an
// identical unwaived expression still reports on all of its lines.
func TestSuppressionSpanFixture(t *testing.T) {
	checkFixture(t, filepath.Join("testdata", "src", "suppressspan"), FloatEq())
}

// TestSuppressionHygiene checks that malformed directives are findings in
// their own right, even when no analyzer is selected.
func TestSuppressionHygiene(t *testing.T) {
	findings := runFixture(t, filepath.Join("testdata", "src", "suppression"))
	expect := []string{
		"needs a rule name and a reason",
		"needs a reason",
		"names unknown rule",
	}
	var unmatched []string
	for _, f := range findings {
		if f.Rule != suppressionRule {
			t.Errorf("unexpected rule %q in finding %s", f.Rule, f)
		}
		ok := false
		for i, pat := range expect {
			if pat != "" && strings.Contains(f.Msg, pat) {
				expect[i] = ""
				ok = true
				break
			}
		}
		if !ok {
			unmatched = append(unmatched, f.String())
		}
	}
	for _, pat := range expect {
		if pat != "" {
			t.Errorf("no suppression finding containing %q; got %v", pat, findings)
		}
	}
	if len(unmatched) > 0 {
		t.Errorf("unexpected suppression findings:\n  %s", strings.Join(unmatched, "\n  "))
	}
}
