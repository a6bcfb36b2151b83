package cord_test

import (
	"errors"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowed names the exported funcs and methods that no non-test Go
// reaches, each with its reason, by module-relative full name. An entry
// that gains a caller, or whose func is gone, fails the test, so the list
// cannot go stale.
var exportAllowed = map[string]string{
	"checkpoint.(*Journal).Hits":          "test hook; cmd/cordbench and internal/experiment tests call it, so export_test.go cannot hold it",
	"checkpoint.(*Journal).SetWriteFault": "test hook; internal/experiment tests call it, so export_test.go cannot hold it",
	"core.(*Detector).Clock":              "test hook; internal/replay's order check reads every thread's clock",
	"progen.New":                          "progen generates the programs of the sim and baseline differential tests",
	"progen.DefaultConfig":                "progen generates the programs of the sim and baseline differential tests",
	"cord.DefaultAreaModel":               "the facade's only route to the area arithmetic; ExampleAreaModel documents it",
}

// stdlibCallers lists the interfaces through which the standard library
// calls the program's methods: a method that satisfies one of them is
// reached even though no program source names it.
const stdlibCallers = `package roots

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
)

type (
	errorer     error
	stringer    fmt.Stringer
	writer      io.Writer
	handler     http.Handler
	marshaler   json.Marshaler
	unmarshaler json.Unmarshaler
	unwrapper   interface{ Unwrap() error } // errors.Is and errors.As
)
`

// TestExportsHaveCallers keeps the API to what the programs use: every
// exported func or method declared in non-test Go must be used by some
// non-test Go, or satisfy an interface whose method the program calls or the
// standard library calls for it (stdlibCallers). perfbench/ is read only for
// the uses it makes. Uses are resolved with go/types, so a caller of a
// same-named func elsewhere does not count.
func TestExportsHaveCallers(t *testing.T) {
	l := newLoader(t)
	var decls []*types.Func
	for _, p := range l.paths {
		if _, err := l.Import(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if p == "cord/perfbench" {
			continue
		}
		for _, f := range l.files[p] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				fn := l.info.Defs[fd.Name].(*types.Func)
				decls = append(decls, fn)
			}
		}
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations; is the walk rooted at the module?")
	}

	// used maps each interface the program uses to the methods it reaches:
	// all of them for an interface it names, since a type converted to it
	// must implement them all, and the one called for any other.
	reached := map[*types.Func]bool{}
	used := map[*types.Interface]map[string]bool{}
	use := func(iface *types.Interface, methods ...string) {
		if used[iface] == nil {
			used[iface] = map[string]bool{}
		}
		for _, m := range methods {
			used[iface][m] = true
		}
	}
	useAll := func(iface *types.Interface) {
		for i := 0; i < iface.NumMethods(); i++ {
			use(iface, iface.Method(i).Name())
		}
	}
	for _, obj := range l.info.Uses {
		switch obj := obj.(type) {
		case *types.TypeName:
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				useAll(iface)
			}
		case *types.Func:
			fn := obj.Origin()
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
				use(recv.Type().Underlying().(*types.Interface), fn.Name())
				continue
			}
			reached[fn] = true
		}
	}
	roots, err := l.check("roots", []*ast.File{l.parse(t, "roots.go", stdlibCallers)})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range roots.Scope().Names() {
		useAll(roots.Scope().Lookup(name).Type().Underlying().(*types.Interface))
	}
	for _, p := range l.paths {
		scope := l.pkgs[p].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || named.TypeParams().Len() > 0 || types.IsInterface(named) {
				continue
			}
			for iface, methods := range used {
				if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
					continue
				}
				for m := range methods {
					obj, _, _ := types.LookupFieldOrMethod(named, true, named.Obj().Pkg(), m)
					if fn, ok := obj.(*types.Func); ok { // promoted methods included
						reached[fn.Origin()] = true
					}
				}
			}
		}
	}

	var orphans []string
	seen := map[string]bool{}
	for _, fn := range decls {
		name := shortName(fn)
		seen[name] = true
		if !reached[fn] && exportAllowed[name] == "" {
			orphans = append(orphans, l.fset.Position(fn.Pos()).String()+": "+name)
		}
		if reached[fn] && exportAllowed[name] != "" {
			t.Errorf("exportAllowed lists %s, which now has a caller; drop the entry", name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no caller outside tests", o)
	}
	for name := range exportAllowed {
		if !seen[name] {
			t.Errorf("exportAllowed lists %s, which is not declared; drop the entry", name)
		}
	}
}

// shortName names fn relative to the module, as in the method expression
// that selects it: progen.New, checkpoint.(*Journal).Hits,
// memsys.Region.Lines, cord.DefaultAreaModel.
func shortName(fn *types.Func) string {
	name := strings.TrimPrefix(strings.TrimPrefix(fn.Pkg().Path(), "cord/"), "internal/") + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		r := types.TypeString(recv.Type(), func(*types.Package) string { return "" })
		if strings.HasPrefix(r, "*") {
			r = "(" + r + ")"
		}
		name += r + "."
	}
	return name + fn.Name()
}

// loader type-checks the module's non-test Go from source: the module's
// packages from the files parsed here, the standard library through the
// source importer. Every package shares one types.Info.
type loader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	paths []string                  // module import paths, in walk order
	files map[string][]*ast.File    // import path -> parsed non-test files
	pkgs  map[string]*types.Package // import path -> checked package
}

func newLoader(t *testing.T) *loader {
	t.Helper()
	fset := token.NewFileSet()
	l := &loader{
		fset:  fset,
		std:   importer.ForCompiler(fset, "source", nil),
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(p, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		ip := path.Join("cord", filepath.ToSlash(p))
		l.paths = append(l.paths, ip)
		for _, name := range bp.GoFiles {
			l.files[ip] = append(l.files[ip], l.parse(t, filepath.Join(p, name), nil))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func (l *loader) parse(t *testing.T, name string, src any) *ast.File {
	t.Helper()
	f, err := parser.ParseFile(l.fset, name, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// Import implements types.Importer: a module package is checked on first
// use, anything else comes from the standard library.
func (l *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	files, ok := l.files[p]
	if !ok {
		return l.std.Import(p)
	}
	pkg, err := l.check(p, files)
	if err != nil {
		return nil, err
	}
	l.pkgs[p] = pkg
	return pkg, nil
}

func (l *loader) check(p string, files []*ast.File) (*types.Package, error) {
	conf := types.Config{Importer: l}
	return conf.Check(p, l.fset, files, l.info)
}
