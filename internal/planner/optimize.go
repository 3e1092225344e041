package planner

import (
	"maps"

	"p2/internal/overlog"
)

// The cost-based planner, part of Compile and Extend. It picks each
// rule's body order under a simple nested-loop cost model before the
// rule is lowered: selections are pushed past joins so fused filters run
// as early as their variables allow, and (where equivalence permits)
// body atoms are greedily reordered smallest-estimated-fan-out first.
// The rule is then lowered once, in that order — the compiler's
// variable-environment machinery derives every working-tuple position,
// join key, and head projection from it, so a planned strand is correct
// by construction, not by patching.
//
// Equivalence discipline. Each rule is classified before it is planned:
//
//   - frozen: the body or head draws randomness (f_rand, f_coinFlip).
//     Any transformation changes how many draws happen or their order,
//     so these rules are left exactly as compiled.
//   - pushdown-only: reordering atoms could change observable behavior
//     — negated atoms (an existential's meaning depends on what is
//     bound before it), sum/avg stream aggregates (float accumulation
//     is visit-order-sensitive), min/max aggregates whose head projects
//     a non-event-bound field (exemplar ties leak visit order), and
//     rules that read a table their own head writes synchronously
//     (directly or through a chain of materialized table aggregates —
//     this covers self-reading deletes, whose removals land inline
//     during the probe walk). min/max aggregates with event-bound
//     heads reorder freely: the value is a pure function of the
//     binding multiset, and ties project identically. Selections
//     always float up: a filter never reorders the nested-loop
//     enumeration, so the surviving tuples and their order are
//     untouched.
//   - full: everything else. Join order changes only the enumeration
//     order of the result set, never its multiset, and the planner
//     rejects cartesian products in any order it would reject
//     textually.

// ruleMode classifies how aggressively one rule may be transformed.
type ruleMode int

const (
	modeFrozen ruleMode = iota
	modePushdown
	modeFull
)

// Per-term cost constants: abstract "tuple touches". Only relative
// magnitudes matter, and only within a single rule.
const (
	costSelect = 0.25 // fused filter evaluation
	costAssign = 0.5  // PEL eval + working-tuple extension
)

// Optimize compiles p's source again, as Compile does, so re-planning a
// compiled plan returns the plan Compile made. Should p's source no
// longer compile, p is returned unchanged. Planning has no inputs beyond
// the source: the name and the two ignored parameters stay only because
// the benchmark rig calls Optimize(plan, nil, OptimizerConfig{}).
func Optimize(p *Plan, _ *CatalogStats, _ OptimizerConfig) *Plan {
	out, err := build(nil, p.Source, p.Defines, true, false)
	if err != nil {
		return p
	}
	return out
}

// planRule chooses a body order for s and its cost. ok is false when
// the rule must not be planned: it is frozen, its textual order does not
// lower, or the search found no runnable term. fold is true when the
// rule is fully reorderable, so a head aggregate may also fuse into its
// final join: the aggregate is known order-insensitive with an
// event-bound head (tryFold validates the structural shape).
func (p *Plan) planRule(s *ruleShape, st *CatalogStats) (order []int, cost float64, fold, ok bool) {
	infos := p.termInfos(s.rest)
	bound := make(map[string]bool)
	for _, a := range s.event.Args {
		if v, isVar := p.resolve(a).(*overlog.VarRef); isVar {
			bound[v.Name] = true
		}
	}
	// The textual order, the one a frozen rule keeps, must place every
	// term where it is ready. A planned order can meet that where the
	// textual one fails; such a rule is not planned, so the textual
	// lowering reports its error, as it does for a plan compiled
	// textually.
	if _, _, ok := placeTerms(infos, bound, modeFrozen, st); !ok {
		return nil, 0, false, false
	}
	mode := p.ruleMode(s.rule, p.IsTable(s.rule.Head.Name), bound)
	if mode == modeFrozen {
		return nil, 0, false, false
	}
	order, cost, ok = placeTerms(infos, bound, mode, st)
	return order, cost, mode == modeFull, ok
}

// ruleMode classifies r; headWrites reports whether the head inserts
// into (or deletes from) a materialized table. eventBound is the set of
// variables the trigger event binds — it decides whether an exemplar
// aggregate's output can depend on visit order.
func (p *Plan) ruleMode(r *overlog.Rule, headWrites bool, eventBound map[string]bool) ruleMode {
	if ruleImpure(r) {
		return modeFrozen
	}
	full := true
	for _, t := range r.Body {
		if a, isAtom := t.(*overlog.Atom); isAtom && a.Neg {
			full = false
		}
	}
	for _, a := range r.Head.Args {
		ar, isAgg := a.(*overlog.AggRef)
		if !isAgg || ar.Fn == "count" {
			continue
		}
		// min and max are pure functions of the binding multiset, so a
		// reorder cannot change the aggregate value itself. What CAN
		// leak visit order is the exemplar: the head projects from the
		// winning working tuple, and a tie between rows that differ in
		// some other projected field picks whichever was visited first.
		// When every non-aggregate head argument is event-bound (or a
		// constant), all candidate working tuples project identically
		// and the tie is invisible — reorder freely. sum and avg stay
		// pinned: float accumulation order is observable.
		if ar.Fn != "min" && ar.Fn != "max" || !headEventBound(p, r, eventBound) {
			full = false
		}
	}
	if full && headWrites {
		// A body atom reading a table the head writes synchronously
		// (itself, or anything reachable through materialized
		// table-aggregate recomputation) sees mid-enumeration effects;
		// reordering would change which probes observe them. This pins
		// self-reading delete rules too — deletes land inline during
		// the probe walk.
		closure := p.syncWrites(r.Head.Name)
		for _, t := range r.Body {
			if a, isAtom := t.(*overlog.Atom); isAtom && closure[a.Name] {
				full = false
			}
		}
	}
	if full {
		return modeFull
	}
	return modePushdown
}

// headEventBound reports whether every non-aggregate head argument is a
// variable the event binds or a constant — the condition under which an
// exemplar aggregate's head tuple is independent of which tied row won.
func headEventBound(p *Plan, r *overlog.Rule, eventBound map[string]bool) bool {
	for _, a := range r.Head.Args {
		if _, isAgg := a.(*overlog.AggRef); isAgg {
			continue
		}
		switch e := p.resolve(a).(type) {
		case *overlog.VarRef:
			if !eventBound[e.Name] {
				return false
			}
		case *overlog.Lit:
		default:
			return false
		}
	}
	return true
}

// syncWrites returns the set of tables written synchronously when a
// tuple lands in head: head itself, expanded transitively through
// materialized table-aggregate heads, whose recomputation listeners
// run inline with the triggering insert or delete.
func (p *Plan) syncWrites(head string) map[string]bool {
	out := make(map[string]bool)
	var grow func(name string)
	grow = func(name string) {
		if out[name] {
			return
		}
		out[name] = true
		for _, ta := range p.TableAggs {
			if ta.Table == name && ta.Materialized {
				grow(ta.HeadName)
			}
		}
	}
	grow(head)
	return out
}

// ruleImpure reports whether any expression in the rule draws
// randomness. f_now, f_localAddr, and the hash functions are pure
// within a strand run (the clock is frozen while a strand executes);
// f_rand and f_coinFlip consume rng state per evaluation, so even
// moving a filter changes the draw sequence.
func ruleImpure(r *overlog.Rule) bool {
	impure := false
	walk := func(es ...overlog.Expr) {
		for _, e := range es {
			overlog.Walk(e, func(e overlog.Expr) {
				if c, ok := e.(*overlog.Call); ok && (c.Name == "f_rand" || c.Name == "f_coinFlip") {
					impure = true
				}
			})
		}
	}
	walk(r.Head.Args...)
	for _, t := range r.Body {
		switch term := t.(type) {
		case *overlog.Assign:
			walk(term.Expr)
		case *overlog.Cond:
			walk(term.Expr)
		case *overlog.Atom:
			walk(term.Args...)
		}
	}
	return impure
}

// termKind classifies one non-event body term for ordering.
type termKind int

const (
	termCond termKind = iota
	termAssign
	termJoin
	termAntiJoin
)

// atomArg is one resolved argument of a body atom.
type atomArg struct {
	varName string // "" for literals and wildcards
	isLit   bool
}

// termInfo is the ordering-relevant shape of one body term.
type termInfo struct {
	kind  termKind
	table string    // joins only
	args  []atomArg // joins only; atom-relative
	deps  []string  // variables that must be bound first
	defs  []string  // variables this term binds
}

// termInfos extracts ordering metadata from the textual rest terms.
func (p *Plan) termInfos(rest []overlog.Term) []termInfo {
	vars := func(e overlog.Expr) (names []string) {
		overlog.Walk(e, func(e overlog.Expr) {
			if v, ok := e.(*overlog.VarRef); ok {
				names = append(names, v.Name)
			}
		})
		return names
	}
	infos := make([]termInfo, 0, len(rest))
	for _, t := range rest {
		var ti termInfo
		switch term := t.(type) {
		case *overlog.Cond:
			ti.kind = termCond
			ti.deps = vars(term.Expr)
		case *overlog.Assign:
			ti.kind = termAssign
			ti.deps = vars(term.Expr)
			ti.defs = []string{term.Var}
		case *overlog.Atom:
			ti.kind = termJoin
			if term.Neg {
				ti.kind = termAntiJoin
			}
			ti.table = term.Name
			seen := make(map[string]bool)
			for _, raw := range term.Args {
				switch arg := p.resolve(raw).(type) {
				case *overlog.VarRef:
					ti.args = append(ti.args, atomArg{varName: arg.Name})
					if ti.kind == termJoin && !seen[arg.Name] {
						seen[arg.Name] = true
						ti.defs = append(ti.defs, arg.Name)
					}
				case *overlog.Lit:
					ti.args = append(ti.args, atomArg{isLit: true})
				default:
					ti.args = append(ti.args, atomArg{})
				}
			}
		}
		infos = append(infos, ti)
	}
	return infos
}

// joinKey returns the atom-relative positions that are bound (or
// literal) under the current bound set — the index key a join placed
// here would probe with.
func (ti *termInfo) joinKey(bound map[string]bool) []int {
	var key []int
	for i, a := range ti.args {
		if a.isLit || (a.varName != "" && bound[a.varName]) {
			key = append(key, i)
		}
	}
	return key
}

// fanout estimates the per-probe output multiplicity of placing the
// join here, probing with the key the bound variables make.
func (ti *termInfo) fanout(bound map[string]bool, st *CatalogStats) float64 {
	return st.Fanout(ti.table, ti.joinKey(bound))
}

// ready reports whether ti can run once the variables in bound are
// bound: it reads only bound variables, binds none a second time, and
// probes with a key (a join without one would be a cartesian product).
// These are the order-dependent checks of the lowering.
func (ti *termInfo) ready(bound map[string]bool) bool {
	switch ti.kind {
	case termJoin, termAntiJoin:
		if len(ti.joinKey(bound)) == 0 {
			return false
		}
	case termAssign:
		for _, d := range ti.defs {
			if bound[d] {
				return false
			}
		}
	}
	for _, d := range ti.deps {
		if !bound[d] {
			return false
		}
	}
	return true
}

// placeTerms builds a body order one term per step, placing the term
// mode picks, and runs the cost model as the order grows: cost
// accumulates tuple touches, and multiplicity multiplies through join
// fan-outs. Antijoins and selections filter (modeled as
// multiplicity-preserving — conservative, since real selectivity is
// unknown). ok is false when no term can be placed, or
// the pick is not ready where it lands. The picks are:
//
//   - frozen: the next term in textual order.
//   - pushdown: the first ready selection, else the next other term in
//     textual order. A filter never changes what a nested-loop
//     enumeration produces or in what order, so this is safe in every
//     non-frozen mode.
//   - full: the first ready selection (filter as early as possible),
//     else the ready join with the smallest estimated fan-out, else the
//     first ready assignment.
//     Assignments never filter, so running one earlier than strictly
//     necessary only multiplies work: on overlay steady-state traffic
//     most probes find nothing, and an assignment hoisted above such a
//     join executes per event instead of (almost) never. Deferring them
//     still unblocks dependent terms — when nothing else is ready the
//     earliest ready assignment is placed, which readies whatever
//     needed its variable. Ties break on textual position, which keeps
//     the choice deterministic for identical stats — the property
//     sharded determinism rests on.
func placeTerms(infos []termInfo, eventBound map[string]bool, mode ruleMode, st *CatalogStats) (order []int, cost float64, ok bool) {
	bound := maps.Clone(eventBound)
	placed := make([]bool, len(infos))
	first := func(want func(*termInfo) bool) int {
		for i := range infos {
			if !placed[i] && want(&infos[i]) {
				return i
			}
		}
		return -1
	}
	readyAs := func(k termKind) func(*termInfo) bool {
		return func(ti *termInfo) bool { return ti.kind == k && ti.ready(bound) }
	}
	pick := func() int {
		if mode == modeFrozen {
			return first(func(*termInfo) bool { return true })
		}
		if i := first(readyAs(termCond)); i >= 0 {
			return i
		}
		if mode == modePushdown {
			return first(func(ti *termInfo) bool { return ti.kind != termCond })
		}
		best, bestFanout := -1, 0.0
		for i := range infos {
			if !placed[i] && infos[i].kind == termJoin && infos[i].ready(bound) {
				if f := infos[i].fanout(bound, st); best < 0 || f < bestFanout {
					best, bestFanout = i, f
				}
			}
		}
		if best >= 0 {
			return best
		}
		return first(readyAs(termAssign))
	}

	order = make([]int, 0, len(infos))
	tuples := 1.0
	for len(order) < len(infos) {
		i := pick()
		if i < 0 || !infos[i].ready(bound) {
			return nil, 0, false
		}
		ti := &infos[i]
		switch ti.kind {
		case termCond:
			cost += tuples * costSelect
		case termAssign:
			cost += tuples * costAssign
		case termJoin:
			f := ti.fanout(bound, st)
			cost += tuples     // probes
			cost += tuples * f // rows examined
			tuples *= f
		case termAntiJoin:
			cost += tuples
		}
		placed[i] = true
		order = append(order, i)
		for _, d := range ti.defs {
			bound[d] = true
		}
	}
	return order, cost, true
}
