package planner

import (
	"fmt"
	"slices"

	"p2/internal/introspect"
	"p2/internal/overlog"
	"p2/internal/val"
)

// Delta lists what an Extend added relative to its base plan — exactly
// the pieces the engine must instantiate to graft the new program into
// a live dataflow.
type Delta struct {
	Tables    []*TableSpec
	Rules     []*Rule
	TableAggs []*TableAggRule
	Facts     []*FactSpec
	Watches   []string
}

// Extend compiles prog in the context of base: its rules may join any
// table base already declares — including the sys* system tables — and
// may declare new tables of their own. base is not mutated; the result
// is a new Plan sharing base's compiled rules plus the delta, which is
// also returned separately. The new rules are planned from the extended
// plan's catalog, as Compile plans a start program, so an installed
// rule's plan depends on its source and the declarations it sees, never
// on the rows a node holds. This is the compiler half of runtime rule
// installation (the paper's §3.5 vision of monitoring queries "written
// in OverLog themselves" and added to a running node).
//
// Re-declaring a table base already has follows Merge semantics: the
// declaration must be identical, and the table is shared. Defines from
// prog must agree with base's; extra overrides both, as in Compile.
func Extend(base *Plan, prog *overlog.Program, extra map[string]val.Value) (*Plan, *Delta, error) {
	for _, m := range prog.Materialize {
		if introspect.IsReserved(m.Name) {
			return nil, nil, fmt.Errorf("planner: table name %s is reserved for system tables (the %q prefix belongs to the runtime)", m.Name, introspect.ReservedPrefix)
		}
	}
	// Merge performs the cross-program consistency checks (shared tables
	// declared identically, defines agreeing) and keeps Source accurate.
	merged, err := overlog.Merge(base.Source, prog)
	if err != nil {
		return nil, nil, err
	}

	p := base.clone()
	p.Source = merged
	delta := &Delta{}

	for _, d := range prog.Defines {
		if _, ok := p.Defines[d.Name]; !ok {
			p.Defines[d.Name] = d.Value
		}
	}
	for k, v := range extra {
		p.Defines[k] = v
	}

	for _, m := range prog.Materialize {
		if _, shared := p.Tables[m.Name]; shared {
			continue // identical re-declaration, verified by Merge
		}
		spec := specFromMaterialize(m)
		p.Tables[m.Name] = spec
		delta.Tables = append(delta.Tables, spec)
	}

	if err := p.inferArities(prog); err != nil {
		return nil, nil, err
	}

	for _, f := range prog.Facts {
		spec, err := p.compileFact(f)
		if err != nil {
			return nil, nil, err
		}
		p.Facts = append(p.Facts, spec)
		delta.Facts = append(delta.Facts, spec)
	}

	baseRules, baseAggs := len(p.Rules), len(p.TableAggs)
	if err := p.addRules(prog.Rules, NewCatalogStats(p)); err != nil {
		return nil, nil, err
	}
	taken := make(map[string]bool, baseRules+baseAggs)
	for _, r := range p.Rules[:baseRules] {
		taken[r.ID] = true
	}
	for _, ta := range p.TableAggs[:baseAggs] {
		taken[ta.ID] = true
	}
	p.ensureRuleIDs(baseRules, baseAggs, taken)
	p.buildGraph(baseRules, baseAggs)
	delta.Rules = p.Rules[baseRules:]
	delta.TableAggs = p.TableAggs[baseAggs:]

	seenWatch := make(map[string]bool, len(p.Watches))
	for _, w := range p.Watches {
		seenWatch[w] = true
	}
	for _, w := range prog.Watches {
		if !seenWatch[w] {
			seenWatch[w] = true
			p.Watches = append(p.Watches, w)
			delta.Watches = append(delta.Watches, w)
		}
	}
	return p, delta, nil
}

// clone returns a copy of p whose maps and slices can grow without
// touching p — compiled rules, specs, facts and the element graph are
// shared by pointer, never mutated.
func (p *Plan) clone() *Plan {
	c := &Plan{
		Source:    p.Source,
		Tables:    make(map[string]*TableSpec, len(p.Tables)),
		Rules:     append([]*Rule(nil), p.Rules...),
		TableAggs: append([]*TableAggRule(nil), p.TableAggs...),
		Facts:     append([]*FactSpec(nil), p.Facts...),
		Watches:   append([]string(nil), p.Watches...),
		Defines:   make(map[string]val.Value, len(p.Defines)),
		Arities:   make(map[string]int, len(p.Arities)),
		indexes:   slices.Clip(p.indexes),
		triggers:  make(map[string][]int, len(p.triggers)),
		scratch:   p.scratch,
		folds:     p.folds,
		streams:   p.streams,
	}
	for k, v := range p.triggers {
		c.triggers[k] = slices.Clip(v) // appends copy, leaving p's untouched
	}
	for k, v := range p.Tables {
		c.Tables[k] = v
	}
	for k, v := range p.Defines {
		c.Defines[k] = v
	}
	for k, v := range p.Arities {
		c.Arities[k] = v
	}
	return c
}
