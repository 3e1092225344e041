package planner_test

import (
	"testing"

	"p2/internal/health"
	"p2/internal/kvs"
	"p2/internal/overlays"
	"p2/internal/overlog"
	"p2/internal/planner"
)

// FuzzCompile checks the lowering against the textual reference on every
// program the parser accepts: Compile and CompileTextual succeed or fail
// together without panicking, agree on the rules and table aggregates
// they emit (IDs and heads, in order), and compiling twice renders the
// same plan.
func FuzzCompile(f *testing.F) {
	for _, s := range overlays.All() {
		f.Add(s.Source)
	}
	f.Add(kvs.Source)
	f.Add(health.MonitorSource())
	for _, src := range planner.Fixtures() {
		f.Add(src)
	}
	// Bodies that once used range(I, Lo, Hi) as a generator; range is an
	// ordinary relation name now, and both lowerings must treat it so,
	// as an event stream or as a materialized table.
	f.Add(`r out@X(X, I) :- a@X(X), range(I, 3).`)
	f.Add(`r out@X(X) :- a@X(X), range(7, 0, 3).`)
	f.Add(`r out@X(X) :- a@X(X), range(X, 0, 3).`)
	f.Add(`
		materialize(range, 10, 10, keys(1)).
		r out@X(X, I) :- a@X(X), range@X(X, I).`)
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := overlog.Parse(src)
		if err != nil {
			return
		}
		planned, perr := planner.Compile(prog, nil)
		textual, terr := planner.CompileTextual(prog, nil)
		if (perr == nil) != (terr == nil) {
			t.Fatalf("Compile error %v, CompileTextual error %v", perr, terr)
		}
		if perr != nil {
			return
		}
		if got, want := heads(planned), heads(textual); got != want {
			t.Fatalf("Compile emits\n%s\nCompileTextual emits\n%s", got, want)
		}
		again, err := planner.Compile(prog, nil)
		if err != nil || again.String() != planned.String() {
			t.Fatalf("compiling twice differs (%v):\n%s\nthen\n%s", err, planned, again)
		}
	})
}

// heads lists p's rules and table aggregates, one "ID head" per line.
func heads(p *planner.Plan) string {
	var s string
	for _, r := range p.Rules {
		s += r.ID + " " + r.HeadName + "\n"
	}
	for _, ta := range p.TableAggs {
		s += ta.ID + " " + ta.HeadName + "\n"
	}
	return s
}
