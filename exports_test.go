package cord_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowed names the exported funcs and methods that may lack a
// by-name caller in non-test Go, each with its reason. An entry whose name
// gains a caller fails the test, so the list cannot go stale.
var exportAllowed = map[string]string{
	"MarshalJSON":   "encoding/json calls it through json.Marshaler",
	"UnmarshalJSON": "encoding/json calls it through json.Unmarshaler",
	"Unwrap":        "errors.Is and errors.As call it on wrapped errors",
	"Hits":          "checkpoint test hook; cmd/cordbench and internal/experiment tests call it, so export_test.go cannot hold it",
	"SetWriteFault": "checkpoint test hook; cmd/cordbench and internal/experiment tests call it, so export_test.go cannot hold it",
}

// TestExportsHaveCallers keeps the API to what the programs use: every
// exported func or method declared in non-test Go must have its name appear
// in some non-test Go besides its declarations. perfbench/ is read only for
// the names it uses. The check is by name, so a caller of any same-named
// func counts; it catches API that nothing but tests reaches.
func TestExportsHaveCallers(t *testing.T) {
	type decl struct {
		name string
		pos  token.Position
	}
	var decls []decl
	declared := map[string]int{} // name -> FuncDecl count
	seen := map[string]int{}     // name -> identifier count, declarations included
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		callersOnly := strings.HasPrefix(path, "perfbench"+string(filepath.Separator))
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				seen[n.Name]++
			case *ast.FuncDecl:
				if n.Name.IsExported() {
					declared[n.Name.Name]++
					if !callersOnly {
						decls = append(decls, decl{n.Name.Name, fset.Position(n.Pos())})
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declarations; is the walk rooted at the module?")
	}
	var orphans []string
	for _, d := range decls {
		if seen[d.name] > declared[d.name] {
			continue
		}
		if exportAllowed[d.name] == "" {
			orphans = append(orphans, d.pos.String()+": "+d.name)
		}
	}
	sort.Strings(orphans)
	for _, o := range orphans {
		t.Errorf("%s has no caller outside tests", o)
	}
	for name := range exportAllowed {
		if declared[name] == 0 || seen[name] > declared[name] {
			t.Errorf("exportAllowed lists %s, which is not an uncalled export; drop the entry", name)
		}
	}
}
