// Package lint is a self-contained static-analysis framework for the inkfuse
// engine, in the spirit of golang.org/x/tools/go/analysis but built only on
// the standard library (go/ast, go/parser, go/types, go/importer) so the
// repository stays dependency-free.
//
// It loads the module with full type information, scans the annotation
// vocabulary (//inkfuse:hotpath, //inklint:allow, //inklint:dispatch,
// //inklint:enumerate, //inklint:errorboundary, //inklint:lockscope) and runs
// a suite of Analyzers that mechanize the engine's invariants. See DESIGN.md
// §12 for the invariant catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadConfig configures Load.
type LoadConfig struct {
	// Dir is any directory inside the module; Load walks up to the nearest
	// go.mod to find the module root.
	Dir string
	// Patterns selects the target packages analyzers report on, as
	// module-relative directory patterns: "./..." (everything, the default),
	// "./internal/vm/..." (subtree), or "./internal/vm" (single package).
	// Dependencies of targets are always loaded for type information but are
	// not themselves analyzed unless matched by a pattern.
	Patterns []string
	// Overlay maps absolute file paths to replacement contents, letting tests
	// typecheck a scratch copy of a file (e.g. a dispatch switch with a case
	// deleted) without touching the tree.
	Overlay map[string][]byte
}

// Package is one type-checked package of the module.
type Package struct {
	// Path is the import path, Dir the absolute directory.
	Path string
	Dir  string
	// Files are the parsed syntax trees in filename order; Filenames holds
	// the matching absolute paths.
	Files     []*ast.File
	Filenames []string
	Types     *types.Package
	Info      *types.Info
	// Target reports whether the package matched LoadConfig.Patterns (and so
	// should be analyzed, not just loaded for type information).
	Target bool
}

// Program is a loaded module: every requested package plus its module-internal
// dependencies, type-checked against a shared FileSet.
type Program struct {
	Fset *token.FileSet

	// Module is the module path from go.mod; Root is its absolute directory.
	Module string
	Root   string
	// Packages in deterministic (import-path) order.
	Packages []*Package

	byPath map[string]*Package
	notes  *annotations
}

// Load parses and type-checks the module containing cfg.Dir.
func Load(cfg LoadConfig) (*Program, error) {
	root, module, err := findModule(cfg.Dir)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:   token.NewFileSet(),
		Module: module,
		Root:   root,
		byPath: map[string]*Package{},
	}

	dirs, err := packageDirs(root, module)
	if err != nil {
		return nil, err
	}
	targets, err := matchPatterns(root, module, dirs, cfg.Patterns)
	if err != nil {
		return nil, err
	}

	// Parse targets, then pull in module-internal imports transitively.
	queue := append([]string(nil), targets...)
	parsed := map[string]*Package{}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		if _, ok := parsed[path]; ok {
			continue
		}
		dir, ok := dirs[path]
		if !ok {
			return nil, fmt.Errorf("lint: import %q not found in module %s", path, module)
		}
		pkg, err := parsePackage(prog.Fset, path, dir, cfg.Overlay)
		if err != nil {
			return nil, err
		}
		parsed[path] = pkg
		for _, imp := range moduleImports(module, pkg.Files) {
			queue = append(queue, imp)
		}
	}
	for _, t := range targets {
		parsed[t].Target = true
	}

	order, err := topoSort(module, parsed)
	if err != nil {
		return nil, err
	}

	imp := &chainImporter{
		prog:   prog,
		stdlib: importer.ForCompiler(prog.Fset, "source", nil),
	}
	for _, pkg := range order {
		if err := typecheckPackage(prog.Fset, pkg, imp); err != nil {
			return nil, err
		}
		prog.Packages = append(prog.Packages, pkg)
		prog.byPath[pkg.Path] = pkg
	}
	prog.notes = scanAnnotations(prog)
	if err := prog.notes.validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// findModule walks up from dir to the nearest go.mod and returns the module
// root directory and module path.
func findModule(dir string) (root, module string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", abs)
		}
	}
}

// packageDirs maps each import path in the module to its directory. A
// directory is a package if it holds at least one non-test .go file. testdata
// and hidden directories are skipped, as are nested modules.
func packageDirs(root, module string) (map[string]string, error) {
	dirs := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
				dirs[path] = path
				break
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for dir := range dirs {
		rel, _ := filepath.Rel(root, dir)
		path := module
		if rel != "." {
			path = module + "/" + filepath.ToSlash(rel)
		}
		out[path] = dir
	}
	return out, nil
}

// matchPatterns resolves LoadConfig.Patterns against the discovered package
// dirs, returning the target import paths in sorted order.
func matchPatterns(root, module string, dirs map[string]string, patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	match := func(path string) bool {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, module), "/")
		for _, pat := range patterns {
			pat = strings.TrimPrefix(pat, "./")
			pat = strings.TrimPrefix(strings.TrimPrefix(pat, module), "/")
			if pat == "..." {
				return true
			}
			if sub, ok := strings.CutSuffix(pat, "/..."); ok {
				if rel == sub || strings.HasPrefix(rel, sub+"/") {
					return true
				}
				continue
			}
			if rel == pat {
				return true
			}
		}
		return false
	}
	var targets []string
	for path := range dirs {
		if match(path) {
			targets = append(targets, path)
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("lint: patterns %v matched no packages", patterns)
	}
	sort.Strings(targets)
	return targets, nil
}

// parsePackage parses the non-test .go files of one directory, honouring the
// overlay. All files must declare the same package name.
func parsePackage(fset *token.FileSet, path, dir string, overlay map[string][]byte) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: path, Dir: dir}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		filename := filepath.Join(dir, e.Name())
		var src any
		if overlay != nil {
			if data, ok := overlay[filename]; ok {
				src = data
			}
		}
		f, err := parser.ParseFile(fset, filename, src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", filename, err)
		}
		pkg.Files = append(pkg.Files, f)
		pkg.Filenames = append(pkg.Filenames, filename)
	}
	if len(pkg.Files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	return pkg, nil
}

// moduleImports returns the module-internal import paths of the files.
func moduleImports(module string, files []*ast.File) []string {
	var out []string
	for _, f := range files {
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p == module || strings.HasPrefix(p, module+"/") {
				out = append(out, p)
			}
		}
	}
	return out
}

// topoSort orders packages so dependencies are type-checked before dependents.
func topoSort(module string, pkgs map[string]*Package) ([]*Package, error) {
	var order []*Package
	state := map[string]int{} // 0 unvisited, 1 visiting, 2 done
	var visit func(path string) error
	visit = func(path string) error {
		switch state[path] {
		case 1:
			return fmt.Errorf("lint: import cycle through %s", path)
		case 2:
			return nil
		}
		state[path] = 1
		pkg := pkgs[path]
		deps := moduleImports(module, pkg.Files)
		sort.Strings(deps)
		for _, d := range deps {
			if _, ok := pkgs[d]; !ok {
				return fmt.Errorf("lint: %s imports %s which was not loaded", path, d)
			}
			if err := visit(d); err != nil {
				return err
			}
		}
		state[path] = 2
		order = append(order, pkg)
		return nil
	}
	var paths []string
	for p := range pkgs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if err := visit(p); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// chainImporter resolves module-internal imports from already-checked packages
// and everything else (the standard library) through the source importer.
type chainImporter struct {
	prog   *Program
	stdlib types.Importer
}

func (c *chainImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := c.prog.byPath[path]; ok {
		return pkg.Types, nil
	}
	return c.stdlib.Import(path)
}

func typecheckPackage(fset *token.FileSet, pkg *Package, imp types.Importer) error {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	var errs []error
	conf := types.Config{
		Importer: imp,
		Error:    func(err error) { errs = append(errs, err) },
	}
	tpkg, err := conf.Check(pkg.Path, fset, pkg.Files, pkg.Info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for _, e := range errs {
			msgs = append(msgs, e.Error())
		}
		if len(msgs) > 8 {
			msgs = append(msgs[:8], fmt.Sprintf("... and %d more", len(msgs)-8))
		}
		return fmt.Errorf("lint: typecheck %s:\n\t%s", pkg.Path, strings.Join(msgs, "\n\t"))
	}
	if err != nil {
		return fmt.Errorf("lint: typecheck %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	return nil
}
