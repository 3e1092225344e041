package dataflow

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryConstructorHasALiveCaller keeps deleted elements deleted: an
// exported New* of this package that only its own tests call is an
// element no rule strand can contain.
func TestEveryConstructorHasALiveCaller(t *testing.T) {
	fset := token.NewFileSet()
	own, _ := filepath.Glob("*.go")
	uncalled := map[string]bool{}
	for _, path := range own {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "New") {
				uncalled[fn.Name.Name] = true
			}
		}
	}
	if len(uncalled) == 0 {
		t.Fatal("found no constructors; the scan is broken")
	}
	here, _ := filepath.Abs(".")
	err := filepath.WalkDir("../..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if abs, _ := filepath.Abs(path); d.IsDir() && (abs == here || strings.HasPrefix(d.Name(), ".") && path != "../..") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && x.Name == "dataflow" {
					delete(uncalled, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range uncalled {
		t.Errorf("dataflow.%s has no caller outside the package's tests: delete it or use it", name)
	}
}
