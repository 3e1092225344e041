package planner

import (
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

// Optimize compiles p's source again, planning every rule against st
// (nil means the catalog heuristics, the estimates Compile plans with),
// so re-planning a compiled plan with nil stats returns the plan Compile
// made. The configuration argument is ignored (see OptimizerConfig).
// Should p's source no longer compile, p is returned unchanged.
func Optimize(p *Plan, st Stats, _ OptimizerConfig) *Plan {
	out, err := compileProg(p.Source, p.Defines, true, st)
	if err != nil {
		return p
	}
	return out
}

// planRule chooses a body order for s. ok is false when the rule must
// not be planned (frozen, its textual order does not lower, or the
// greedy search bailed). fold is true when the rule is additionally
// eligible for the aggregate-into-join fusion: fully reorderable (so
// the aggregate is already known order-insensitive with an event-bound
// head) and carrying a head aggregate — tryFold validates the
// structural shape.
func (p *Plan) planRule(s *ruleShape, st Stats) (order []int, cost float64, fold, ok bool) {
	infos := p.termInfos(s.rest)
	bound := make(map[string]bool)
	for _, a := range s.event.Args {
		if v, isVar := p.resolve(a).(*overlog.VarRef); isVar {
			bound[v.Name] = true
		}
	}
	if !textualBinds(infos, bound) {
		return nil, 0, false, false
	}
	mode := p.ruleMode(s.rule, p.IsTable(s.rule.Head.Name), bound)
	if mode == modeFrozen {
		return nil, 0, false, false
	}
	if mode == modePushdown {
		order = pushdownOrder(infos, bound)
	} else {
		fold = headHasAgg(s.rule.Head)
		if order, ok = greedyOrder(infos, bound, st); !ok {
			return nil, 0, false, false
		}
	}
	return order, p.costOrder(infos, order, bound, st), fold, true
}

// textualBinds reports whether the textual order binds every variable
// before a term reads it, each variable at most once, and gives every
// probe a key — the order-dependent checks of the lowering. A planned
// order can meet them where the textual one fails; such a rule is not
// planned, so the textual lowering reports its error, as it does for a
// plan compiled textually.
func textualBinds(infos []termInfo, boundInit map[string]bool) bool {
	bound := copyBound(boundInit)
	for i := range infos {
		ti := &infos[i]
		switch ti.kind {
		case termJoin, termAntiJoin:
			if len(ti.joinKey(bound)) == 0 {
				return false
			}
		case termAssign, termRange:
			for _, d := range ti.defs {
				if bound[d] {
					return false
				}
			}
		}
		if !depsBound(ti.deps, bound) {
			return false
		}
		for _, d := range ti.defs {
			bound[d] = true
		}
	}
	return true
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
	for _, a := range r.Head.Args {
		if exprImpure(a) {
			return true
		}
	}
	for _, t := range r.Body {
		switch term := t.(type) {
		case *overlog.Assign:
			if exprImpure(term.Expr) {
				return true
			}
		case *overlog.Cond:
			if exprImpure(term.Expr) {
				return true
			}
		case *overlog.Atom:
			for _, a := range term.Args {
				if exprImpure(a) {
					return true
				}
			}
		}
	}
	return false
}

func exprImpure(e overlog.Expr) bool {
	switch x := e.(type) {
	case *overlog.Call:
		if x.Name == "f_rand" || x.Name == "f_coinFlip" {
			return true
		}
		for _, a := range x.Args {
			if exprImpure(a) {
				return true
			}
		}
	case *overlog.Unary:
		return exprImpure(x.X)
	case *overlog.Binary:
		return exprImpure(x.X) || exprImpure(x.Y)
	case *overlog.RangeTest:
		return exprImpure(x.K) || exprImpure(x.Lo) || exprImpure(x.Hi)
	}
	return false
}

// termKind classifies one non-event body term for ordering.
type termKind int

const (
	termCond termKind = iota
	termAssign
	termJoin
	termAntiJoin
	termRange
)

// atomArg is one resolved argument of a body atom.
type atomArg struct {
	varName string // "" for literals and wildcards
	isLit   bool
}

// termInfo is the ordering-relevant shape of one body term.
type termInfo struct {
	idx   int
	kind  termKind
	table string    // joins only
	args  []atomArg // joins only; atom-relative
	deps  []string  // variables that must be bound first
	defs  []string  // variables this term binds
}

// termInfos extracts ordering metadata from the textual rest terms.
func (p *Plan) termInfos(rest []overlog.Term) []termInfo {
	infos := make([]termInfo, 0, len(rest))
	for i, t := range rest {
		ti := termInfo{idx: i}
		switch term := t.(type) {
		case *overlog.Cond:
			ti.kind = termCond
			ti.deps = exprVarNames(term.Expr, nil)
		case *overlog.Assign:
			ti.kind = termAssign
			ti.deps = exprVarNames(term.Expr, nil)
			ti.defs = []string{term.Var}
		case *overlog.Atom:
			if term.Name == "range" {
				ti.kind = termRange
				if len(term.Args) == 3 {
					ti.deps = exprVarNames(term.Args[1], nil)
					ti.deps = exprVarNames(term.Args[2], ti.deps)
					if v, isVar := p.resolve(term.Args[0]).(*overlog.VarRef); isVar {
						ti.defs = []string{v.Name}
					}
				}
				break
			}
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

func exprVarNames(e overlog.Expr, into []string) []string {
	switch x := e.(type) {
	case *overlog.VarRef:
		return append(into, x.Name)
	case *overlog.Unary:
		return exprVarNames(x.X, into)
	case *overlog.Binary:
		return exprVarNames(x.Y, exprVarNames(x.X, into))
	case *overlog.RangeTest:
		return exprVarNames(x.Hi, exprVarNames(x.Lo, exprVarNames(x.K, into)))
	case *overlog.Call:
		for _, a := range x.Args {
			into = exprVarNames(a, into)
		}
	}
	return into
}

func depsBound(deps []string, bound map[string]bool) bool {
	for _, d := range deps {
		if !bound[d] {
			return false
		}
	}
	return true
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
func (ti *termInfo) fanout(bound map[string]bool, st Stats) float64 {
	return st.Fanout(ti.table, ti.joinKey(bound))
}

// pushdownOrder keeps non-selection terms textual and floats each
// selection to the earliest point where its variables are bound. A
// filter never changes what a nested-loop enumeration produces or in
// what order, so this is safe in every non-frozen mode.
func pushdownOrder(infos []termInfo, boundInit map[string]bool) []int {
	bound := copyBound(boundInit)
	order := make([]int, 0, len(infos))
	placed := make([]bool, len(infos))
	placeConds := func() {
		for j := range infos {
			if !placed[j] && infos[j].kind == termCond && depsBound(infos[j].deps, bound) {
				placed[j] = true
				order = append(order, j)
			}
		}
	}
	for i := range infos {
		if infos[i].kind == termCond {
			continue
		}
		placeConds()
		placed[i] = true
		order = append(order, i)
		for _, d := range infos[i].defs {
			bound[d] = true
		}
	}
	placeConds()
	for i := range infos { // conds whose deps never bind cannot exist in a compiled rule
		if !placed[i] {
			order = append(order, i)
		}
	}
	return order
}

// greedyOrder picks terms one at a time: any runnable selection first
// (filter as early as possible), then the runnable join with the
// smallest estimated fan-out, then range generators, and assignments
// dead last. Assignments never filter, so running one earlier than
// strictly necessary only multiplies work: on overlay steady-state
// traffic most probes find nothing, and an assignment hoisted above
// such a join executes per event instead of (almost) never. Deferring
// them still unblocks dependent terms — when nothing else is runnable
// the earliest runnable assignment is placed, which re-eligibilizes
// whatever needed its variable. Ties break on textual position, which
// keeps the choice deterministic for identical stats — the property
// sharded determinism rests on.
func greedyOrder(infos []termInfo, boundInit map[string]bool, st Stats) ([]int, bool) {
	bound := copyBound(boundInit)
	order := make([]int, 0, len(infos))
	placed := make([]bool, len(infos))
	for len(order) < len(infos) {
		pick := -1
		for i := range infos { // selections, textual order
			if !placed[i] && infos[i].kind == termCond && depsBound(infos[i].deps, bound) {
				pick = i
				break
			}
		}
		if pick < 0 {
			best := -1.0
			for i := range infos { // joins, min fan-out
				if placed[i] || infos[i].kind != termJoin {
					continue
				}
				if len(infos[i].joinKey(bound)) == 0 {
					continue // would be a cartesian product here
				}
				f := infos[i].fanout(bound, st)
				if pick < 0 || f < best {
					pick, best = i, f
				}
			}
		}
		if pick < 0 {
			for i := range infos { // ranges, textual order
				if !placed[i] && infos[i].kind == termRange && depsBound(infos[i].deps, bound) {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			for i := range infos { // assignments, last resort
				if !placed[i] && infos[i].kind == termAssign && depsBound(infos[i].deps, bound) {
					pick = i
					break
				}
			}
		}
		if pick < 0 {
			return nil, false // no runnable term; keep the textual plan
		}
		placed[pick] = true
		order = append(order, pick)
		for _, d := range infos[pick].defs {
			bound[d] = true
		}
	}
	return order, true
}

// costOrder runs the cost model over a chosen order: cost accumulates
// tuple touches, multiplicity multiplies through join fan-outs and
// range expansions. Antijoins and selections filter (modeled as
// multiplicity-preserving — conservative, since real selectivity is
// unknown).
func (p *Plan) costOrder(infos []termInfo, order []int, boundInit map[string]bool, st Stats) float64 {
	bound := copyBound(boundInit)
	tuples, cost := 1.0, 0.0
	for _, i := range order {
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
		case termRange:
			tuples *= catalogRangeFanout
			cost += tuples
		}
		for _, d := range ti.defs {
			bound[d] = true
		}
	}
	return cost
}

func copyBound(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}
