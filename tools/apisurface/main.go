// Command apisurface dumps the exported API surface of a Go package as
// a sorted, canonical text listing — one line per exported constant,
// variable, type, function, and method — and checks it against a golden
// file. CI runs it with -check so the public surface of package p2
// cannot drift without an explicit, reviewed golden update:
//
//	go run ./tools/apisurface            # print the surface
//	go run ./tools/apisurface -check     # diff against api/p2.txt; exit 1 on drift
//	go run ./tools/apisurface -update    # rewrite api/p2.txt
//
// The dump is syntactic (go/ast, no type checking), which keeps the
// tool dependency-free: signatures are printed exactly as declared,
// unexported struct fields and interface methods are elided, and
// everything is sorted so the output is stable across file moves. An
// alias of a type declared elsewhere in the module (type X = pkg.Y) is
// followed to Y's declaration: a struct is printed with Y's exported
// fields, and each of Y's exported methods gets a line of its own, so
// removing a field or a method behind an alias shows in the diff too.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

func main() {
	dir := flag.String("dir", ".", "package directory to dump")
	golden := flag.String("golden", "api/p2.txt", "golden surface file")
	check := flag.Bool("check", false, "fail if the surface differs from the golden file")
	update := flag.Bool("update", false, "rewrite the golden file")
	flag.Parse()

	surface, err := dump(*dir)
	if err != nil {
		fatal("%v", err)
	}
	switch {
	case *update:
		if err := os.WriteFile(*golden, []byte(surface), 0o644); err != nil {
			fatal("%v", err)
		}
		fmt.Printf("apisurface: wrote %s (%d lines)\n", *golden, strings.Count(surface, "\n"))
	case *check:
		want, err := os.ReadFile(*golden)
		if err != nil {
			fatal("reading golden: %v (run with -update to create it)", err)
		}
		if d := diff(string(want), surface); d != "" {
			fmt.Fprintf(os.Stderr,
				"apisurface: exported surface of %s drifted from %s:\n%s\n"+
					"If the change is intentional, run: go run ./tools/apisurface -update\n",
				*dir, *golden, d)
			os.Exit(1)
		}
		fmt.Printf("apisurface: %s matches %s\n", *dir, *golden)
	default:
		fmt.Print(surface)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "apisurface: "+format+"\n", args...)
	os.Exit(2)
}

// dump renders the package's exported surface, one sorted line per
// item.
func dump(dir string) (string, error) {
	fset := token.NewFileSet()
	pkgs, err := parseDir(fset, dir)
	if err != nil {
		return "", err
	}
	mod, err := findModule(fset, dir)
	if err != nil {
		return "", err
	}
	var lines []string
	pkgName := ""
	for name, pkg := range pkgs {
		pkgName = name
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				lines = append(lines, declLines(mod, file, decl)...)
			}
		}
	}
	sort.Strings(lines)
	var sb strings.Builder
	fmt.Fprintf(&sb, "# Exported API surface of package %s.\n", pkgName)
	sb.WriteString("# Generated by tools/apisurface; CI fails on drift.\n")
	sb.WriteString("# Regenerate with: go run ./tools/apisurface -update\n")
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteString("\n")
	}
	return sb.String(), nil
}

func parseDir(fset *token.FileSet, dir string) (map[string]*ast.Package, error) {
	return parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.SkipObjectResolution)
}

// module resolves import paths inside the module that holds the dumped
// package to the types they declare.
type module struct {
	fset *token.FileSet
	path string                           // module path, from go.mod
	root string                           // directory holding go.mod
	pkgs map[string]map[string]*typeDecls // import path → type name → declarations
}

// typeDecls is what one named type of a module package declares.
type typeDecls struct {
	st      *ast.StructType // nil unless the type is a struct
	methods []*ast.FuncDecl // exported methods
}

// findModule walks up from dir to the nearest go.mod.
func findModule(fset *token.FileSet, dir string) (*module, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	for {
		if data, err := os.ReadFile(filepath.Join(d, "go.mod")); err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
					return &module{fset: fset, path: f[1], root: d,
						pkgs: make(map[string]map[string]*typeDecls)}, nil
				}
			}
			return nil, fmt.Errorf("%s/go.mod names no module", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return nil, fmt.Errorf("no go.mod above %s", dir)
		}
		d = parent
	}
}

// aliased returns the declarations of the type an alias's target sel
// names, or nil when sel is not a type declared in this module.
func (m *module) aliased(file *ast.File, sel *ast.SelectorExpr) *typeDecls {
	pkg, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	for _, imp := range file.Imports {
		ipath, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		name := path.Base(ipath)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == pkg.Name {
			return m.load(ipath)[sel.Sel.Name]
		}
	}
	return nil
}

// load parses the module package at ipath once and indexes its type
// declarations and their exported methods by type name.
func (m *module) load(ipath string) map[string]*typeDecls {
	if s, ok := m.pkgs[ipath]; ok {
		return s
	}
	s := make(map[string]*typeDecls)
	m.pkgs[ipath] = s
	rel, ok := strings.CutPrefix(ipath, m.path+"/")
	if !ok {
		return s
	}
	pkgs, err := parseDir(m.fset, filepath.Join(m.root, filepath.FromSlash(rel)))
	if err != nil {
		fatal("%v", err)
	}
	decls := func(name string) *typeDecls {
		if s[name] == nil {
			s[name] = &typeDecls{}
		}
		return s[name]
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil && d.Name.IsExported() {
						if name := recvName(d.Recv); name != "" {
							decls(name).methods = append(decls(name).methods, d)
						}
					}
				case *ast.GenDecl:
					if d.Tok != token.TYPE {
						continue
					}
					for _, spec := range d.Specs {
						ts := spec.(*ast.TypeSpec)
						if ts.Assign != 0 {
							continue
						}
						td := decls(ts.Name.Name)
						td.st, _ = ts.Type.(*ast.StructType)
					}
				}
			}
		}
	}
	return s
}

// declLines renders one top-level declaration's exported items.
func declLines(mod *module, file *ast.File, decl ast.Decl) []string {
	fset := mod.fset
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() {
			return nil
		}
		if d.Recv != nil && !exportedRecv(d.Recv) {
			return nil
		}
		fn := *d
		fn.Doc, fn.Body = nil, nil
		return []string{render(fset, &fn)}
	case *ast.GenDecl:
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec:
				for _, name := range s.Names {
					if !name.IsExported() {
						continue
					}
					line := d.Tok.String() + " " + name.Name
					if s.Type != nil {
						line += " " + render(fset, s.Type)
					}
					out = append(out, line)
				}
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				ts := *s
				ts.Doc, ts.Comment = nil, nil
				ts.Type = elideUnexported(s.Type)
				line := render(fset, &ast.GenDecl{Tok: token.TYPE, Specs: []ast.Spec{&ts}})
				if sel, ok := s.Type.(*ast.SelectorExpr); ok && s.Assign != 0 {
					if td := mod.aliased(file, sel); td != nil {
						if td.st != nil {
							line += " " + render(fset, elideUnexported(td.st))
						}
						for _, m := range td.methods {
							fn := *m
							fn.Doc, fn.Body = nil, nil
							out = append(out, "alias "+s.Name.Name+": "+render(fset, &fn))
						}
					}
				}
				out = append(out, line)
			}
		}
		return out
	}
	return nil
}

// exportedRecv reports whether a method receiver names an exported
// type.
func exportedRecv(recv *ast.FieldList) bool {
	return ast.IsExported(recvName(recv))
}

// recvName returns the name of the type a method receiver names, or ""
// when it names none.
func recvName(recv *ast.FieldList) string {
	if len(recv.List) != 1 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// elideUnexported strips unexported fields from struct types and
// unexported methods from interface types, so the surface tracks only
// what callers can see.
func elideUnexported(t ast.Expr) ast.Expr {
	switch x := t.(type) {
	case *ast.StructType:
		st := *x
		st.Fields = filterFields(x.Fields)
		return &st
	case *ast.InterfaceType:
		it := *x
		it.Methods = filterFields(x.Methods)
		return &it
	}
	return t
}

func filterFields(fl *ast.FieldList) *ast.FieldList {
	if fl == nil {
		return nil
	}
	out := &ast.FieldList{}
	for _, f := range fl.List {
		if len(f.Names) == 0 { // embedded
			out.List = append(out.List, f)
			continue
		}
		var names []*ast.Ident
		for _, n := range f.Names {
			if n.IsExported() {
				names = append(names, n)
			}
		}
		if len(names) == 0 {
			continue
		}
		nf := *f
		nf.Doc, nf.Comment = nil, nil
		nf.Names = names
		out.List = append(out.List, &nf)
	}
	return out
}

// render prints an AST node on one canonical line.
func render(fset *token.FileSet, node any) string {
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.RawFormat}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		return fmt.Sprintf("<print error: %v>", err)
	}
	// Collapse multi-line renderings (struct/interface bodies) into one
	// line so the golden file diffs line-per-item.
	fields := strings.Fields(buf.String())
	return strings.Join(fields, " ")
}

// diff returns a unified-ish listing of lines present in only one of
// the two surfaces ("" if equal).
func diff(want, got string) string {
	if want == got {
		return ""
	}
	wantSet := toSet(want)
	gotSet := toSet(got)
	var sb strings.Builder
	for _, l := range sortedKeys(gotSet) {
		if !wantSet[l] {
			sb.WriteString("  + " + l + "\n")
		}
	}
	for _, l := range sortedKeys(wantSet) {
		if !gotSet[l] {
			sb.WriteString("  - " + l + "\n")
		}
	}
	if sb.Len() == 0 {
		sb.WriteString("  (ordering or header changed)\n")
	}
	return sb.String()
}

func toSet(s string) map[string]bool {
	out := make(map[string]bool)
	for _, l := range strings.Split(s, "\n") {
		if l != "" {
			out[l] = true
		}
	}
	return out
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
