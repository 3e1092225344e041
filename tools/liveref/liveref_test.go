// Package liveref holds the module's live-reference check: every
// function and method declared in a non-test file under internal/ must
// be referenced from a non-test file somewhere in the module, and every
// field of a named struct type declared there must be read by one, so
// code and state only its own tests reach are deleted instead of kept.
// It is a test and nothing else; run it with
//
//	go test ./tools/liveref/
package liveref

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// allowed names the functions and fields under internal/ that no
// shipped program reaches and that stay anyway, each with its reason. A
// name ending in "*" covers every name it prefixes.
var allowed = map[string]string{
	"chordref.*": "the reference Chord implementation the engine's tests compare against",

	"scenario.Generate": "fault lab: tests and CI's test-faultlab job drive the generated scenarios",
	"scenario.Shrink":   "fault lab: shrinks a diverging script in the fault-lab tests",
	"scenario.RunSim":   "fault lab: runs a script on the simulator for the differential tests",
	"scenario.RunUDP":   "fault lab: runs a script on loopback UDP for the differential tests",
	"scenario.Diff*":    "fault lab: the differential oracles the fault-lab tests apply",
	"scenario.Check*":   "fault lab: the invariant checks the fault-lab tests apply",

	"planner.CompileTextual": "the reference lowering FuzzCompile checks Compile against",

	"id.ID.Shr":    "val/ring_test.go's reference for val's ring arithmetic",
	"id.BetweenCO": "val/ring_test.go's reference for val's ring arithmetic",
	"id.BetweenCC": "val/ring_test.go's reference for val's ring arithmetic",

	"engine.(*Node).ScratchCap":     "the only window on the stated scratch bound; TestStrandScratchStaysWithinPlanBound asserts through p2.Node",
	"transport.(*Transport).OnDrop": "transport tests assert which tuple each drop was charged to",

	"val.Value.IsNull": "the only null test p2.Value offers a library user, as p2 exports no Kind constants",

	"scenario.Result.Addrs": "fault lab: the replay input the fault-lab tests rebuild a failing run from",
}

// platforms are the file sets the check type-checks; a function counts
// as referenced, and a field as read, when any of them does so.
var platforms = []string{"linux", "windows"}

func TestEveryInternalFuncHasALiveReference(t *testing.T) {
	declared, dead, err := unreferenced("../..")
	if err != nil {
		t.Fatal(err)
	}
	if declared == 0 {
		t.Fatal("found no declarations under internal/; the scan is broken")
	}
	for _, name := range dead {
		if !isAllowed(name) {
			t.Errorf("%s is used only from tests: delete it or use it", name)
		}
	}
	for pattern := range allowed {
		if !matchesAny(pattern, dead) {
			t.Errorf("allowed %s is referenced from non-test code now (or gone): take it off the list", pattern)
		}
	}
}

// TestCheckFindsOnlyTheDeadFunction runs the check on a fixture module
// that declares one dead function and two dead fields (one read only by
// a test, one only incremented) beside the kinds of reference a plain
// scan misses: a method only an interface of the standard library
// calls, a generic method used only through an instantiation, a method
// and a field only a non-unix file uses, a field read only through its
// address, a field only a map key's comparison reads, and a field of a
// type the module's root package aliases.
func TestCheckFindsOnlyTheDeadFunction(t *testing.T) {
	declared, got, err := unreferenced("testdata/fixture")
	if err != nil {
		t.Fatal(err)
	}
	if declared == 0 {
		t.Fatal("found no declarations in the fixture; the scan is broken")
	}
	if want := []string{"lib.Dead", "lib.Stats.hits", "lib.Stats.written"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("unreferenced = %v, want %v", got, want)
	}
}

// isAllowed reports whether an entry of allowed covers name.
func isAllowed(name string) bool {
	for pattern := range allowed {
		if match(pattern, name) {
			return true
		}
	}
	return false
}

func match(pattern, name string) bool {
	if prefix, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(name, prefix)
	}
	return pattern == name
}

func matchesAny(pattern string, names []string) bool {
	for _, n := range names {
		if match(pattern, n) {
			return true
		}
	}
	return false
}

// unreferenced type-checks the module rooted at root once per platform
// and returns how many functions and fields its internal/ tree declares
// and the sorted names of those that no non-test file references (a
// function) or reads (a field) on any platform.
func unreferenced(root string) (declared int, names []string, err error) {
	modPath, err := modulePath(root)
	if err != nil {
		return 0, nil, err
	}
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{}
	decls := map[string]bool{}
	used := map[string]bool{}
	fields := map[token.Pos]string{}
	read := map[token.Pos]bool{}
	for _, goos := range platforms {
		l := &loader{fset: fset, parsed: parsed, root: root, modPath: modPath,
			pkgs: map[string]*types.Package{}, ifaces: map[string][]*types.Interface{},
			decls: decls, used: used, fields: fields, read: read}
		l.ctx = build.Default
		l.ctx.GOOS, l.ctx.GOARCH, l.ctx.CgoEnabled = goos, "amd64", false
		if err := l.run(); err != nil {
			return 0, nil, fmt.Errorf("%s: %w", goos, err)
		}
	}
	for name := range decls {
		if !used[name] {
			names = append(names, name)
		}
	}
	for pos, name := range fields {
		if !read[pos] {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return len(decls) + len(fields), names, nil
}

func modulePath(root string) (string, error) {
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s/go.mod names no module", root)
}

// loader type-checks one platform's file set: the module's packages
// with their bodies, every package they import without.
type loader struct {
	ctx     build.Context
	fset    *token.FileSet
	parsed  map[string]*ast.File // by file name, shared across platforms
	root    string
	modPath string
	pkgs    map[string]*types.Package // by import path
	methods []*types.Func             // methods declared under internal/
	ifaces  map[string][]*types.Interface

	decls, used map[string]bool // by name, across platforms

	// fields and read key a field by its types.Var's position, which
	// every platform's Var for it shares (each file is parsed once), so
	// the fields of a function-local type match as well as any other.
	fields map[token.Pos]string // declared under internal/, with its name
	read   map[token.Pos]bool
}

func (l *loader) run() error {
	var dirs []string
	err := filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != l.root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_")) {
			return filepath.SkipDir
		}
		if d.IsDir() {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, dir := range dirs {
		rel, _ := filepath.Rel(l.root, dir)
		ipath := l.modPath
		if rel != "." {
			ipath += "/" + filepath.ToSlash(rel)
		}
		if _, err := l.importPath(ipath, dir); err != nil {
			var none *build.NoGoError
			if errors.As(err, &none) {
				continue
			}
			return err
		}
	}
	for _, pkg := range l.pkgs {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				l.addIface(tn.Type())
			}
		}
	}
	for _, fn := range l.methods {
		name := funcName(l.modPath, fn)
		if !l.used[name] && l.satisfies(fn) {
			l.used[name] = true
		}
	}
	// Library users read the exported fields of every struct the root
	// package re-exports by an alias.
	if root := l.pkgs[l.modPath]; root != nil {
		for _, name := range root.Scope().Names() {
			tn, ok := root.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.IsAlias() {
				continue
			}
			if st, ok := types.Unalias(tn.Type()).Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						l.read[f.Origin().Pos()] = true
					}
				}
			}
		}
	}
	return nil
}

func (l *loader) addIface(t types.Type) {
	it, ok := t.Underlying().(*types.Interface)
	if !ok {
		return
	}
	if named, ok := t.(*types.Named); ok && named.TypeParams() != nil {
		return
	}
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i).Name()
		l.ifaces[m] = append(l.ifaces[m], it)
	}
}

// satisfies reports whether fn's receiver type implements an interface
// that declares a method of fn's name: a call through that interface
// reaches fn without naming it.
func (l *loader) satisfies(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.TypeParams() != nil {
		return false
	}
	for _, it := range l.ifaces[fn.Name()] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *loader) ImportFrom(path, dir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.own(path) {
		rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modPath), "/")
		return l.importPath(path, filepath.Join(l.root, filepath.FromSlash(rel)))
	}
	bp, err := l.ctx.Import(path, dir, 0)
	if err != nil {
		return nil, err
	}
	return l.importPath(bp.ImportPath, bp.Dir)
}

// own reports whether ipath names a package of the module.
func (l *loader) own(ipath string) bool {
	return ipath == l.modPath || strings.HasPrefix(ipath, l.modPath+"/")
}

// importPath type-checks the package in dir once per platform. Only
// the module's own packages are checked with function bodies, and only
// their files yield declarations and references.
func (l *loader) importPath(ipath, dir string) (*types.Package, error) {
	if pkg, ok := l.pkgs[ipath]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", ipath)
		}
		return pkg, nil
	}
	bp, err := l.ctx.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	l.pkgs[ipath] = nil
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := l.parse(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	own := l.own(ipath)
	conf := types.Config{
		Importer:         l,
		IgnoreFuncBodies: !own,
		Sizes:            types.SizesFor("gc", l.ctx.GOARCH),
	}
	var info *types.Info
	if own {
		info = &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
	}
	pkg, err := conf.Check(ipath, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", ipath, err)
	}
	l.pkgs[ipath] = pkg
	if own {
		l.record(ipath, files, info)
	}
	return pkg, nil
}

func (l *loader) parse(path string) (*ast.File, error) {
	if f, ok := l.parsed[path]; ok {
		return f, nil
	}
	f, err := parser.ParseFile(l.fset, path, nil, parser.SkipObjectResolution)
	if err != nil {
		return nil, err
	}
	l.parsed[path] = f
	return f, nil
}

// record notes what one module package's files declare under internal/,
// every function they reference outside the referenced function's own
// body and every field they read.
func (l *loader) record(ipath string, files []*ast.File, info *types.Info) {
	internal := strings.HasPrefix(ipath+"/", l.modPath+"/internal/")
	for _, tv := range info.Types {
		if tv.IsType() {
			l.addIface(tv.Type)
			// A map keyed by a struct compares, so reads, all its fields.
			if m, ok := tv.Type.Underlying().(*types.Map); ok {
				l.readAll(m.Key())
			}
		}
	}
	l.readFields(files, info)
	for _, f := range files {
		if internal {
			l.declareFields(ipath, f, info)
		}
		for _, d := range f.Decls {
			// self stays nil outside a function: a package-level
			// initializer's references all count.
			var self *types.Func
			if fd, ok := d.(*ast.FuncDecl); ok {
				self, _ = info.Defs[fd.Name].(*types.Func)
				if internal && self != nil && fd.Name.Name != "_" && !(fd.Recv == nil && fd.Name.Name == "init") {
					l.decls[funcName(l.modPath, self)] = true
					if fd.Recv != nil {
						l.methods = append(l.methods, self)
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if fn, ok := info.Uses[id].(*types.Func); ok && fn.Origin() != self {
						l.used[funcName(l.modPath, fn.Origin())] = true
					}
				}
				return true
			})
		}
	}
}

// declareFields notes the fields of every named struct type f declares,
// at package level or inside a function. Embedded fields are left out:
// they compose a type's method set as much as they hold state.
func (l *loader) declareFields(ipath string, f *ast.File, info *types.Info) {
	pkg := strings.TrimPrefix(ipath, l.modPath+"/internal/")
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		if st, ok := ts.Type.(*ast.StructType); ok {
			for _, fd := range st.Fields.List {
				for _, name := range fd.Names {
					if v, ok := info.Defs[name].(*types.Var); ok && name.Name != "_" {
						l.fields[v.Pos()] = pkg + "." + ts.Name.Name + "." + name.Name
					}
				}
			}
		}
		return true
	})
}

// readFields notes every field one package's files read. A use is a
// read unless it is the target of an assignment (compound ones
// included) or of ++/--, or a key of a composite literal. Comparing two
// structs with == or != reads every field of both.
func (l *loader) readFields(files []*ast.File, info *types.Info) {
	written := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel.Sel] = true
		}
	}
	visit := func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(n.X)
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				written[id] = true
			}
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				l.readAll(info.TypeOf(n.X))
				l.readAll(info.TypeOf(n.Y))
			}
		}
		return true
	}
	for _, f := range files {
		ast.Inspect(f, visit)
	}
	for id, obj := range info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
			l.read[v.Origin().Pos()] = true
		}
	}
}

// readAll marks read every field that comparing two values of type t
// compares.
func (l *loader) readAll(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			l.read[u.Field(i).Origin().Pos()] = true
			l.readAll(u.Field(i).Type())
		}
	case *types.Array:
		l.readAll(u.Elem())
	}
}

// funcName names fn as pkg.Func, pkg.Recv.Method or pkg.(*Recv).Method,
// pkg being the import path below the module's internal/ directory.
func funcName(modPath string, fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
		pkg = strings.TrimPrefix(pkg, modPath+"/internal/")
		pkg = strings.TrimPrefix(pkg, modPath+"/")
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return pkg + "." + fn.Name()
	}
	recv := sig.Recv().Type()
	ptr := false
	if p, ok := recv.(*types.Pointer); ok {
		recv, ptr = p.Elem(), true
	}
	tname := types.TypeString(recv, func(*types.Package) string { return "" })
	if named, ok := recv.(*types.Named); ok {
		tname = named.Obj().Name()
	}
	if ptr {
		return pkg + ".(*" + tname + ")." + fn.Name()
	}
	return pkg + "." + tname + "." + fn.Name()
}
