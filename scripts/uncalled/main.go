// Command uncalled enforces the rule that every exported function and
// method has a caller outside test files. It type-checks the non-test
// files of every module in the tree (the root module and bench/, whose
// nowperf program drives the simulator through the now facade) with
// go/types, and reports each exported function or method that no code
// references.
//
// A method also counts as called when it implements a method of an
// interface that is called (an own interface whose method is referenced,
// or any standard-library interface, whose methods the library calls),
// and a String, GoString or Error method always does: fmt and errors
// find those by type assertion.
//
// A name that must stay without a caller goes on the allowlist
// (scripts/uncalled/allow.txt), one "name reason" per line. An entry
// whose name is called again, or no longer exists, fails the check too,
// so the list cannot go stale.
//
// Usage, from the repository root:
//
//	go run ./scripts/uncalled
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	problems, err := check(".", "scripts/uncalled/allow.txt")
	if err != nil {
		fmt.Fprintln(os.Stderr, "uncalled:", err)
		os.Exit(2)
	}
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "uncalled: %d problem(s); call, delete or allowlist each name\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("uncalled: every exported function and method has a non-test caller or an allowlist entry")
}

// check scans the tree at root and returns one line per uncalled name
// missing from the allowlist and one per stale allowlist entry.
func check(root, allowFile string) ([]string, error) {
	allowed, err := readAllow(allowFile)
	if err != nil {
		return nil, err
	}
	l := &loader{fset: token.NewFileSet(), mods: map[string]string{}, pkgs: map[string]*types.Package{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	if err := l.loadTree(root); err != nil {
		return nil, err
	}
	var problems []string
	for _, f := range l.uncalled() {
		if allowed[f.key] {
			delete(allowed, f.key)
		} else {
			problems = append(problems, fmt.Sprintf("%s: %s has no non-test caller", f.pos, f.key))
		}
	}
	for key := range allowed {
		problems = append(problems, fmt.Sprintf("%s: allowlisted %s is called or gone; drop its entry", allowFile, key))
	}
	sort.Strings(problems)
	return problems, nil
}

// readAllow parses the allowlist; blank lines and # comments are skipped
// and every entry needs a reason.
func readAllow(file string) (map[string]bool, error) {
	f, err := os.Open(file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	allowed := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" || allowed[key] {
			return nil, fmt.Errorf("%s:%d: %s is listed twice or has no reason", file, n, key)
		}
		allowed[key] = true
	}
	return allowed, sc.Err()
}

type loader struct {
	fset  *token.FileSet
	std   types.Importer
	root  string                    // module path of the root module
	mods  map[string]string         // module path -> directory
	pkgs  map[string]*types.Package // own packages, by import path
	order []string                  // own import paths in load order
	infos []*types.Info
}

// loadTree finds every module under root, then type-checks every
// package directory of each.
func (l *loader) loadTree(root string) error {
	var dirs []string
	err := filepath.WalkDir(root, func(p string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		dirs = append(dirs, p)
		b, err := os.ReadFile(filepath.Join(p, "go.mod"))
		if err != nil {
			return nil
		}
		for _, line := range strings.Split(string(b), "\n") {
			if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
				l.mods[f[1]] = p
				if p == root {
					l.root = f[1]
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		if _, err := l.load(l.pathOf(dir)); err != nil {
			if _, none := err.(*build.NoGoError); !none {
				return err
			}
		}
	}
	return nil
}

// pathOf maps a directory to its import path under the innermost module.
func (l *loader) pathOf(dir string) string {
	best, bestDir := "", ""
	for path, mdir := range l.mods {
		if rel, err := filepath.Rel(mdir, dir); err == nil && !strings.HasPrefix(rel, "..") && len(mdir) >= len(bestDir) {
			best, bestDir = path+"/"+filepath.ToSlash(rel), mdir
		}
	}
	return strings.TrimSuffix(best, "/.")
}

// dirOf maps an import path of an own module to its directory.
func (l *loader) dirOf(path string) (string, bool) {
	best, bestDir := "", ""
	for mpath, mdir := range l.mods {
		if (path == mpath || strings.HasPrefix(path, mpath+"/")) && len(mpath) > len(best) {
			best, bestDir = mpath, filepath.Join(mdir, filepath.FromSlash(strings.TrimPrefix(path[len(mpath):], "/")))
		}
	}
	return bestDir, best != ""
}

// Import checks own packages from their non-test files and leaves the
// standard library to the source importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if _, own := l.dirOf(path); own {
		return l.load(path)
	}
	return l.std.Import(path)
}

func (l *loader) load(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, _ := l.dirOf(path)
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = pkg
	l.order = append(l.order, path)
	l.infos = append(l.infos, info)
	return pkg, nil
}

type finding struct{ key, pos string }

// uncalled returns every exported function and method of the own
// packages that nothing calls, keyed "pkg.Func" or "pkg.Type.Method"
// with pkg the import path below the root module ("now" for the root).
func (l *loader) uncalled() []finding {
	used := map[types.Object]bool{}
	ifaces := map[*types.Interface]bool{types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	for _, info := range l.infos {
		for _, obj := range info.Uses {
			switch obj := obj.(type) {
			case *types.Func:
				used[obj.Origin()] = true
			case *types.TypeName:
				addIface(obj.Type())
			}
		}
		for _, tv := range info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
	}
	viaIface := func(m *types.Func, t types.Type) bool {
		if m.Name() == "String" || m.Name() == "GoString" || m.Name() == "Error" {
			return true
		}
		for it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				im := it.Method(i)
				if im.Name() != m.Name() || !(types.Implements(t, it) || types.Implements(types.NewPointer(t), it)) {
					continue
				}
				if _, own := l.dirOf(im.Pkg().Path()); !own || used[im] {
					return true
				}
			}
		}
		return false
	}

	var out []finding
	note := func(fn *types.Func, pkg, name string, called bool) {
		if fn.Exported() && !called {
			out = append(out, finding{key: pkg + "." + name, pos: l.fset.Position(fn.Pos()).String()})
		}
	}
	for _, path := range l.order {
		pkg := strings.TrimPrefix(path, l.root+"/")
		if path == l.root {
			pkg = l.pkgs[path].Name()
		}
		scope := l.pkgs[path].Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				note(obj, pkg, name, used[obj])
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() || types.IsInterface(named) {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					note(m, pkg, name+"."+m.Name(), used[m] || viaIface(m, named))
				}
			}
		}
	}
	return out
}
