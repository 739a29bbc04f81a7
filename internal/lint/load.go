package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// The loader is deliberately self-contained: the module has no third-party
// dependencies and the build environment has no module proxy, so instead of
// golang.org/x/tools/go/packages it shells out to `go list -json -deps` for
// package metadata and type-checks everything — the repo and the slice of
// the standard library it imports — from source with go/parser + go/types.

// SourceFile is one parsed file of an analyzed package.
type SourceFile struct {
	AST  *ast.File
	Path string // absolute path on disk
	Test bool   // from a _test.go file
}

// Package is a loaded, type-checked package presented to analyzers.
type Package struct {
	ImportPath string
	Name       string
	Dir        string
	Files      []SourceFile
	Fset       *token.FileSet
	Types      *types.Package
	Info       *types.Info
}

// listMeta is the subset of `go list -json` output the loader consumes.
type listMeta struct {
	ImportPath  string
	Name        string
	Dir         string
	GoFiles     []string
	TestGoFiles []string
	Imports     []string
	ImportMap   map[string]string // source import path -> resolved (stdlib vendoring)
	TestImports []string
	Standard    bool
	DepOnly     bool
	Error       *struct{ Err string }
}

// Loader caches type-checked packages (the repo's and the standard
// library's) across Load and LoadDir calls so test fixtures and repeated
// loads re-check nothing.
type Loader struct {
	Fset *token.FileSet
	Dir  string // working directory for `go list` (defaults to the process cwd)

	metas    map[string]*listMeta
	checked  map[string]*types.Package
	checking map[string]bool
	pkgs     map[string]*Package // fully-checked targets (with Info), by import path
}

// NewLoader returns a loader running `go list` in dir ("" = process cwd).
func NewLoader(dir string) *Loader {
	return &Loader{
		Fset:     token.NewFileSet(),
		Dir:      dir,
		metas:    map[string]*listMeta{},
		checked:  map[string]*types.Package{},
		checking: map[string]bool{},
		pkgs:     map[string]*Package{},
	}
}

// Load resolves the patterns with `go list`, type-checks every matched
// package (with its in-package test files) and all transitive dependencies,
// and returns the matched packages sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	metas, err := l.goList(patterns...)
	if err != nil {
		return nil, err
	}
	var targets []*listMeta
	for _, m := range metas {
		if !m.DepOnly && !m.Standard {
			targets = append(targets, m)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: no packages match %v", patterns)
	}
	// Test files can import packages the non-test dependency graph never
	// reaches (testing, repro fixtures, ...): list them in one extra pass.
	var missing []string
	for _, m := range targets {
		for _, imp := range m.TestImports {
			if imp != "C" && l.metas[imp] == nil {
				missing = append(missing, imp)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		missing = compactStrings(missing)
		if _, err := l.goList(missing...); err != nil {
			return nil, err
		}
	}
	// Check targets in dependency order — regular and test imports alike —
	// and publish each result into the import cache immediately. A target
	// that imports another target must resolve it to the IDENTICAL
	// *types.Package: a second type-check of the same path produces a
	// distinct object, and with it every cross-package type identity (and
	// CHA interface resolution over the implementer universe) silently
	// fails.
	isTarget := map[string]*listMeta{}
	for _, m := range targets {
		isTarget[m.ImportPath] = m
	}
	var order []*listMeta
	seen := map[string]bool{}
	var visit func(path string)
	visit = func(path string) {
		if seen[path] {
			return
		}
		seen[path] = true
		m := l.metas[path]
		if m == nil || m.Standard {
			return
		}
		for _, imp := range m.Imports {
			visit(imp)
		}
		if t := isTarget[path]; t != nil {
			for _, imp := range t.TestImports {
				visit(imp)
			}
			order = append(order, t)
		}
	}
	for _, m := range targets {
		visit(m.ImportPath)
	}
	var out []*Package
	for _, m := range order {
		pkg, err := l.checkTarget(m)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	return out, nil
}

// LoadDir parses and type-checks a plain directory of Go files (a lint test
// fixture, typically under testdata where the go tool does not look) as a
// single package. Imports are resolved through the regular loader, so
// fixtures may import the standard library freely.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	names, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var files []SourceFile
	var imports []string
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, SourceFile{AST: f, Path: name, Test: strings.HasSuffix(name, "_test.go")})
		for _, spec := range f.Imports {
			if p, err := strconv.Unquote(spec.Path.Value); err == nil && p != "unsafe" && p != "C" {
				imports = append(imports, p)
			}
		}
	}
	sort.Strings(imports)
	imports = compactStrings(imports)
	var missing []string
	for _, imp := range imports {
		if l.metas[imp] == nil {
			missing = append(missing, imp)
		}
	}
	if len(missing) > 0 {
		if _, err := l.goList(missing...); err != nil {
			return nil, err
		}
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path := "fixture/" + filepath.Base(dir)
	info := newInfo()
	tpkg, err := l.typeCheck(path, sourceASTs(files), info, nil)
	if err != nil {
		return nil, fmt.Errorf("lint: fixture %s: %w", dir, err)
	}
	return &Package{
		ImportPath: path,
		Name:       tpkg.Name(),
		Dir:        abs,
		Files:      files,
		Fset:       l.Fset,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// Load is the one-shot convenience used by the CLI.
func Load(dir string, patterns ...string) ([]*Package, error) {
	return NewLoader(dir).Load(patterns...)
}

// goList runs `go list -e -json -deps` on the arguments and merges the
// returned metadata into the loader's cache.
func (l *Loader) goList(args ...string) ([]*listMeta, error) {
	cmd := exec.Command("go", append([]string{"list", "-e", "-json", "-deps", "--"}, args...)...)
	cmd.Dir = l.Dir
	// CGO_ENABLED=0 keeps GoFiles self-contained: no cgo-generated
	// declarations the type-checker would miss.
	cmd.Env = append(os.Environ(), "CGO_ENABLED=0")
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %w\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var out []*listMeta
	dec := json.NewDecoder(&stdout)
	for dec.More() {
		m := new(listMeta)
		if err := dec.Decode(m); err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		if m.Error != nil && !m.DepOnly {
			return nil, fmt.Errorf("lint: %s: %s", m.ImportPath, m.Error.Err)
		}
		if prev, ok := l.metas[m.ImportPath]; ok {
			// Keep the first sighting: later passes may re-list a target
			// as a plain named package and lose the DepOnly distinction.
			out = append(out, prev)
			continue
		}
		l.metas[m.ImportPath] = m
		out = append(out, m)
	}
	return out, nil
}

// checkTarget type-checks a matched package including its in-package test
// files, with full type information recorded for the analyzers.
func (l *Loader) checkTarget(m *listMeta) (*Package, error) {
	if pkg, ok := l.pkgs[m.ImportPath]; ok {
		return pkg, nil
	}
	var files []SourceFile
	for _, name := range m.GoFiles {
		f, err := l.parse(filepath.Join(m.Dir, name))
		if err != nil {
			return nil, err
		}
		files = append(files, SourceFile{AST: f, Path: filepath.Join(m.Dir, name)})
	}
	for _, name := range m.TestGoFiles {
		f, err := l.parse(filepath.Join(m.Dir, name))
		if err != nil {
			return nil, err
		}
		files = append(files, SourceFile{AST: f, Path: filepath.Join(m.Dir, name), Test: true})
	}
	info := newInfo()
	tpkg, err := l.typeCheck(m.ImportPath, sourceASTs(files), info, m.ImportMap)
	if err != nil {
		return nil, err
	}
	pkg := &Package{
		ImportPath: m.ImportPath,
		Name:       tpkg.Name(),
		Dir:        m.Dir,
		Files:      files,
		Fset:       l.Fset,
		Types:      tpkg,
		Info:       info,
	}
	l.pkgs[m.ImportPath] = pkg
	// Publish into the import cache so later packages importing this one
	// resolve to the identical *types.Package. (If a dependency-only copy
	// already slipped in — possible only when an earlier Load on this
	// loader pulled the path in as a plain dep — the full copy replaces it
	// for future importers.)
	l.checked[m.ImportPath] = tpkg
	return pkg, nil
}

// importPkg type-checks a dependency (no test files, no recorded info),
// listing it on demand if an earlier pass never saw it.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if tp, ok := l.checked[path]; ok {
		return tp, nil
	}
	if l.checking[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	m := l.metas[path]
	if m == nil {
		if _, err := l.goList(path); err != nil {
			return nil, err
		}
		if m = l.metas[path]; m == nil {
			return nil, fmt.Errorf("lint: cannot resolve import %q", path)
		}
	}
	if m.Error != nil {
		return nil, fmt.Errorf("lint: %s: %s", path, m.Error.Err)
	}
	l.checking[path] = true
	defer delete(l.checking, path)
	var files []*ast.File
	for _, name := range m.GoFiles {
		f, err := l.parse(filepath.Join(m.Dir, name))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	tp, err := l.typeCheck(path, files, nil, m.ImportMap)
	if err != nil {
		return nil, err
	}
	l.checked[path] = tp
	return tp, nil
}

func (l *Loader) parse(path string) (*ast.File, error) {
	f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return nil, fmt.Errorf("lint: parse %s: %w", path, err)
	}
	return f, nil
}

func (l *Loader) typeCheck(path string, files []*ast.File, info *types.Info, importMap map[string]string) (*types.Package, error) {
	conf := types.Config{
		Importer: importerFunc(func(p string) (*types.Package, error) {
			if mapped, ok := importMap[p]; ok {
				p = mapped
			}
			return l.importPkg(p)
		}),
		Sizes:       types.SizesFor("gc", runtime.GOARCH),
		FakeImportC: true,
	}
	tp, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-check %s: %w", path, err)
	}
	return tp, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

func sourceASTs(files []SourceFile) []*ast.File {
	out := make([]*ast.File, len(files))
	for i, f := range files {
		out[i] = f.AST
	}
	return out
}

// compactStrings deduplicates a sorted slice in place.
func compactStrings(s []string) []string {
	out := s[:0]
	for i, v := range s {
		if i == 0 || v != s[i-1] {
			out = append(out, v)
		}
	}
	return out
}
