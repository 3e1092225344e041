package planner

import (
	"maps"
	"slices"

	"p2/internal/overlog"
	"p2/internal/val"
)

// Extend compiles prog in the context of base: its rules may join any
// table base already declares — including the sys* system tables — and
// may declare new tables of their own. base is not mutated; the result
// is a new Plan sharing base's compiled rules, and what it adds is
// everything past base's lengths in Rules, TableAggs, Facts and
// Watches, plus the tables base lacks — the pieces the engine grafts
// into a live dataflow. The new rules are planned from the extended
// plan's catalog, as Compile plans a start program (Compile is Extend
// of the empty plan), so an installed rule's plan depends on its source
// and the declarations it sees, never on the rows a node holds. This is
// the compiler half of runtime rule installation (the paper's §3.5
// vision of monitoring queries "written in OverLog themselves" and
// added to a running node).
//
// Re-declaring a table base already has follows Merge semantics: the
// declaration must be identical, and the table is shared. Defines from
// prog must agree with base's; extra overrides both, as in Compile.
func Extend(base *Plan, prog *overlog.Program, extra map[string]val.Value) (*Plan, error) {
	return build(base, prog, extra, true, false)
}

// ExtendSystem is Extend for the runtime's own rule libraries: prog may
// also materialize relations in the reserved sys* namespace and derive
// rows into them, the system tables included. No user program reaches
// it, so no user relation can collide with a library's. Unless planned
// is set the new rules are lowered textually, as CompileTextual lowers
// a program: the reference a library's plan is checked against.
func ExtendSystem(base *Plan, prog *overlog.Program, extra map[string]val.Value, planned bool) (*Plan, error) {
	return build(base, prog, extra, planned, true)
}

// clone returns a copy of p whose maps and slices can grow without
// touching p — compiled rules, specs, facts and the element graph are
// shared by pointer, never mutated.
func (p *Plan) clone() *Plan {
	c := &Plan{
		Source:    p.Source,
		Tables:    maps.Clone(p.Tables),
		Rules:     slices.Clip(p.Rules), // appends copy, leaving p's untouched
		TableAggs: slices.Clip(p.TableAggs),
		Facts:     slices.Clip(p.Facts),
		Watches:   slices.Clip(p.Watches),
		Defines:   maps.Clone(p.Defines),
		Arities:   maps.Clone(p.Arities),
		indexes:   slices.Clip(p.indexes),
		triggers:  make(map[string][]int, len(p.triggers)),
		scratch:   p.scratch,
		folds:     p.folds,
		streams:   p.streams,
	}
	for k, v := range p.triggers {
		c.triggers[k] = slices.Clip(v)
	}
	return c
}
