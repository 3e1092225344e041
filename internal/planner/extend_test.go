package planner

import (
	"strings"
	"testing"

	"p2/internal/introspect"
	"p2/internal/overlog"
	"p2/internal/val"
)

func parse(t *testing.T, src string) *overlog.Program {
	t.Helper()
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return prog
}

const extendBase = `
	materialize(link, infinity, infinity, keys(1,2)).
	L1 linkEvent@N(N, D) :- link@N(N, D).
`

func TestCompileRegistersSystemTables(t *testing.T) {
	p := MustCompile(parse(t, extendBase), nil)
	for _, d := range introspect.Defs() {
		spec, ok := p.Tables[d.Name]
		if !ok || !spec.System {
			t.Fatalf("plan missing system table %s", d.Name)
		}
		if p.Arities[d.Name] != d.Arity {
			t.Fatalf("%s arity = %d, want %d", d.Name, p.Arities[d.Name], d.Arity)
		}
	}
	// Rules may join system tables out of the box.
	if _, err := Compile(parse(t,
		"R1 out@N(N, C) :- sysTable@N(N, T, C, I, D, R)."), nil); err != nil {
		t.Fatalf("join against sysTable: %v", err)
	}
	// Wrong arity against a system table is caught.
	if _, err := Compile(parse(t,
		"R1 out@N(N) :- sysTable@N(N, T)."), nil); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("err = %v, want arity error", err)
	}
	// Reserved names cannot be materialized.
	if _, err := Compile(parse(t, "materialize(sysFoo, 1, 1, keys(1))."), nil); err == nil {
		t.Fatal("reserved materialize must fail")
	}
	// ... nor written by rule heads, delete rules, or facts: the
	// runtime owns the sys* namespace.
	for _, src := range []string{
		`S1 sysTable@N(N, "fake", 100, 0, 0, 0) :- periodic@N(N, E, 1).`,
		`S2 delete sysRule@N(N, R, F) :- sysRule@N(N, R, F).`,
		`sysNode@X(X, 0, 0, 0).`,
	} {
		if _, err := Compile(parse(t, src), nil); err == nil ||
			!strings.Contains(err.Error(), "read-only") {
			t.Errorf("%s: err = %v, want read-only violation", src, err)
		}
	}
}

func TestExtendAddsWithoutMutatingBase(t *testing.T) {
	base := MustCompile(parse(t, extendBase), nil)
	baseRules, baseTables := len(base.Rules), len(base.Tables)

	ext, err := Extend(base, parse(t, `
		materialize(deg, infinity, 1, keys(1)).
		watch(deg).
		D1 deg@N(N, count<*>) :- link@N(N, D).
	`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(base.Rules) != baseRules || len(base.Tables) != baseTables || len(base.Watches) != 0 {
		t.Fatal("Extend mutated the base plan")
	}
	// What the graft adds is what lies past the base: one table, one
	// table aggregate, no rule strand, one watch.
	if len(ext.Tables) != baseTables+1 || !ext.IsTable("deg") || !ext.IsTable("link") {
		t.Fatalf("extended plan has %d tables, want %d with deg and link", len(ext.Tables), baseTables+1)
	}
	if added, aggs := len(ext.Rules)-baseRules, ext.TableAggs[len(base.TableAggs):]; len(aggs) != 1 || added != 0 {
		t.Fatalf("added rules/aggs = %d/%d", added, len(aggs))
	}
	if w := ext.Watches[len(base.Watches):]; len(w) != 1 || w[0] != "deg" {
		t.Fatalf("added watches = %v", w)
	}
	if ext.RuleCount() != base.RuleCount()+1 {
		t.Fatalf("rule count = %d", ext.RuleCount())
	}
}

func TestExtendConflicts(t *testing.T) {
	base := MustCompile(parse(t, extendBase+"define(k, 5).\n"), nil)
	for _, tc := range []struct{ name, src string }{
		{"tableConflict", "materialize(link, 9, 9, keys(1))."},
		{"defineConflict", "define(k, 6)."},
		{"arityConflict", "A1 out@N(N) :- link@N(N)."},
		{"reserved", "materialize(sysBar, 1, 1, keys(1))."},
		{"unknownRelationJoin", "A2 out@N(N, X) :- linkEvent@N(N, D), ghost@N(N, X)."},
	} {
		if _, err := Extend(base, parse(t, tc.src), nil); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}
	// Identical re-declarations are shared, not duplicated.
	ext, err := Extend(base, parse(t, "materialize(link, infinity, infinity, keys(1,2))."), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext.Tables) != len(base.Tables) || ext.Tables["link"] != base.Tables["link"] {
		t.Fatal("shared table duplicated")
	}
}

func TestExtendKeepsRuleIDsUnique(t *testing.T) {
	base := MustCompile(parse(t, extendBase), nil)
	ext, err := Extend(base, parse(t, `
		L1 other@N(N, D) :- link@N(N, D).
		copy@N(N, D) :- link@N(N, D).
	`), nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range ext.Rules {
		if r.ID == "" || seen[r.ID] {
			t.Fatalf("duplicate or empty rule ID %q", r.ID)
		}
		seen[r.ID] = true
	}
	if ext.Rules[len(base.Rules)].ID == "L1" {
		t.Fatal("installed rule shadowed base rule L1")
	}
}

func TestExtendResolvesNewDefines(t *testing.T) {
	base := MustCompile(parse(t, extendBase), nil)
	ext, err := Extend(base, parse(t, `
		define(thresh, 3).
		T1 big@N(N, D) :- linkEvent@N(N, D), D > thresh.
	`), map[string]val.Value{"thresh": val.Int(7)})
	if err != nil {
		t.Fatal(err)
	}
	if !ext.Defines["thresh"].Equal(val.Int(7)) {
		t.Fatalf("extra define did not override: %v", ext.Defines["thresh"])
	}
}
