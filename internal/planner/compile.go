package planner

import (
	"fmt"
	"maps"
	"slices"

	"p2/internal/dataflow"
	"p2/internal/introspect"
	"p2/internal/overlog"
	"p2/internal/pel"
	"p2/internal/table"
	"p2/internal/val"
)

// Compile translates a parsed program into a Plan, planning every rule
// from the catalog (see Optimize): the result is a function of prog and
// extra alone, and it never changes afterwards, so any number of nodes
// may run it at once. extra supplies or overrides symbolic constants
// (the programmatic equivalent of define statements). Compiling is
// extending the empty plan, which holds only the system tables.
func Compile(prog *overlog.Program, extra map[string]val.Value) (*Plan, error) {
	return build(nil, prog, extra, true)
}

// CompileTextual is Compile without planning: every rule body is lowered
// in its textual order, and nothing folds. It is the reference plan the
// tests check planned strands against, and no runtime option selects it.
func CompileTextual(prog *overlog.Program, extra map[string]val.Value) (*Plan, error) {
	return build(nil, prog, extra, false)
}

// build compiles prog onto base, the one way a plan is made: the result
// shares base's compiled rules, specs, facts and element graph, and
// appends prog's after them. A nil base is the empty plan (Compile);
// otherwise prog is a graft (Extend), whose defines leave base's values
// alone and whose identical re-declarations of base tables are shared.
// With planned set every new rule is planned from the result's catalog;
// without it every rule is lowered textually. base is never mutated.
func build(base *Plan, prog *overlog.Program, extra map[string]val.Value, planned bool) (*Plan, error) {
	fresh := base == nil
	var p *Plan
	if fresh {
		p = &Plan{
			Source:  prog,
			Tables:  make(map[string]*TableSpec),
			Defines: make(map[string]val.Value),
			Arities: make(map[string]int),
		}
		p.addSystemTables()
	} else {
		p = base.clone()
	}

	for _, m := range prog.Materialize {
		if introspect.IsReserved(m.Name) {
			return nil, fmt.Errorf("planner: table name %s is reserved for system tables (the %q prefix belongs to the runtime)", m.Name, introspect.ReservedPrefix)
		}
		if _, dup := p.Tables[m.Name]; dup {
			if fresh {
				return nil, fmt.Errorf("planner: table %s materialized twice", m.Name)
			}
			continue // an identical re-declaration, as Merge verifies
		}
		p.Tables[m.Name] = specFromMaterialize(m)
	}
	if !fresh {
		// Merge checks the graft against base (shared tables declared
		// identically, defines agreeing) and keeps Source accurate.
		merged, err := overlog.Merge(base.Source, prog)
		if err != nil {
			return nil, err
		}
		p.Source = merged
	}

	for _, d := range prog.Defines {
		if _, ok := p.Defines[d.Name]; fresh || !ok {
			p.Defines[d.Name] = d.Value
		}
	}
	maps.Copy(p.Defines, extra)

	if err := p.inferArities(prog); err != nil {
		return nil, err
	}

	for _, f := range prog.Facts {
		spec, err := p.compileFact(f)
		if err != nil {
			return nil, err
		}
		p.Facts = append(p.Facts, spec)
	}

	var st *CatalogStats
	if planned {
		st = NewCatalogStats(p)
	}
	rules, aggs := len(p.Rules), len(p.TableAggs)
	if err := p.addRules(prog.Rules, st); err != nil {
		return nil, err
	}
	p.ensureRuleIDs(rules, aggs)
	p.buildGraph(rules, aggs)

	for _, w := range prog.Watches {
		if !slices.Contains(p.Watches, w) {
			p.Watches = append(p.Watches, w)
		}
	}
	return p, nil
}

// specFromMaterialize lowers a materialize() declaration to a spec.
func specFromMaterialize(m *overlog.Materialize) *TableSpec {
	ttl := m.Lifetime
	if m.Infinite || ttl <= 0 {
		ttl = table.Infinity
	}
	keys := make([]int, len(m.Keys))
	for i, k := range m.Keys {
		keys[i] = k - 1 // OverLog keys() is 1-based
	}
	return &TableSpec{Name: m.Name, TTL: ttl, MaxSize: m.Size, Keys: keys}
}

// addSystemTables registers the introspection relations in the plan so
// rules that join sysTable, sysRule, sysNet, or sysNode classify as
// stream×table equijoins and arity misuse is caught at compile time.
// The engine instantiates and refreshes them per node.
func (p *Plan) addSystemTables() {
	for _, d := range introspect.Defs() {
		p.Tables[d.Name] = &TableSpec{
			Name: d.Name, TTL: table.Infinity, Keys: append([]int(nil), d.Keys...), System: true,
		}
		p.Arities[d.Name] = d.Arity
	}
}

// ensureRuleIDs gives every compiled rule and table aggregate from the
// given start offsets onward a unique, non-empty identifier — the
// primary key of the sysRule relation. Anonymous rules get positional
// names (r1, r2, ...); colliding names get a ~n suffix. The entries
// before the offsets are shared with the plan this one extends: they
// keep their IDs, and a new rule never shadows their counters.
func (p *Plan) ensureRuleIDs(startRules, startAggs int) {
	seen := make(map[string]bool, len(p.Rules)+len(p.TableAggs))
	for _, r := range p.Rules[:startRules] {
		seen[r.ID] = true
	}
	for _, ta := range p.TableAggs[:startAggs] {
		seen[ta.ID] = true
	}
	ord := startRules + startAggs
	claim := func(id string) string {
		ord++
		if id == "" {
			id = fmt.Sprintf("r%d", ord)
		}
		base := id
		for n := 2; seen[id]; n++ {
			id = fmt.Sprintf("%s~%d", base, n)
		}
		seen[id] = true
		return id
	}
	for _, r := range p.Rules[startRules:] {
		r.ID = claim(r.ID)
	}
	for _, ta := range p.TableAggs[startAggs:] {
		ta.ID = claim(ta.ID)
	}
}

// MustCompile compiles or panics — for embedding known-good specs.
func MustCompile(prog *overlog.Program, extra map[string]val.Value) *Plan {
	p, err := Compile(prog, extra)
	if err != nil {
		panic(err)
	}
	return p
}

// builtin relations whose arity varies by use.
func arityExempt(name string) bool { return name == "periodic" || name == "range" }

func (p *Plan) inferArities(prog *overlog.Program) error {
	note := func(name string, n int, where string) error {
		if arityExempt(name) {
			return nil
		}
		if prev, ok := p.Arities[name]; ok && prev != n {
			return fmt.Errorf("planner: %s used with arity %d and %d (%s)", name, prev, n, where)
		}
		p.Arities[name] = n
		return nil
	}
	for _, f := range prog.Facts {
		if err := note(f.Atom.Name, len(f.Atom.Args), "fact "+f.ID); err != nil {
			return err
		}
	}
	for _, r := range prog.Rules {
		if err := note(r.Head.Name, len(r.Head.Args), "rule "+r.ID); err != nil {
			return err
		}
		for _, t := range r.Body {
			if a, ok := t.(*overlog.Atom); ok {
				if err := note(a.Name, len(a.Args), "rule "+r.ID); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func (p *Plan) compileFact(f *overlog.Fact) (*FactSpec, error) {
	if introspect.IsReserved(f.Atom.Name) {
		return nil, fmt.Errorf("planner: fact %s writes into the reserved system-table namespace (%q prefix); system tables are read-only from OverLog", f.Atom.Name, introspect.ReservedPrefix)
	}
	spec := &FactSpec{Name: f.Atom.Name}
	for i, arg := range f.Atom.Args {
		switch a := p.resolve(arg).(type) {
		case *overlog.Lit:
			spec.Args = append(spec.Args, FactArg{Value: a.Val})
		case *overlog.VarRef:
			spec.Args = append(spec.Args, FactArg{Local: true})
		default:
			return nil, fmt.Errorf("planner: fact %s arg %d must be a constant or variable", f.Atom.Name, i)
		}
	}
	return spec, nil
}

// resolve rewrites ConstRef nodes to literals using the defines map.
func (p *Plan) resolve(e overlog.Expr) overlog.Expr {
	switch x := e.(type) {
	case *overlog.ConstRef:
		if v, ok := p.Defines[x.Name]; ok {
			return &overlog.Lit{Val: v}
		}
		return x
	case *overlog.Unary:
		return &overlog.Unary{Op: x.Op, X: p.resolve(x.X)}
	case *overlog.Binary:
		return &overlog.Binary{Op: x.Op, X: p.resolve(x.X), Y: p.resolve(x.Y)}
	case *overlog.RangeTest:
		return &overlog.RangeTest{
			K: p.resolve(x.K), Lo: p.resolve(x.Lo), Hi: p.resolve(x.Hi),
			LoClosed: x.LoClosed, HiClosed: x.HiClosed,
		}
	case *overlog.Call:
		args := make([]overlog.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = p.resolve(a)
		}
		return &overlog.Call{Name: x.Name, Loc: x.Loc, Args: args}
	}
	return e
}

// ruleCtx tracks the variable environment while lowering one rule.
type ruleCtx struct {
	plan  *Plan
	rule  *overlog.Rule
	env   map[string]int
	width int
	ops   []Op
	// folded is set when tryFold fused the rule's aggregate into its
	// final join; compileHead then uses the event++aggregate layout for
	// min/max heads (the accumulator path count/sum/avg always use).
	folded bool
}

func (c *ruleCtx) errf(format string, args ...any) error {
	id := c.rule.ID
	if id == "" {
		id = c.rule.Head.Name
	}
	return fmt.Errorf("planner: rule %s: %s", id, fmt.Sprintf(format, args...))
}

// ruleShape is a rule as classification leaves it: its event, the body
// terms after it in textual order, and its trigger kind; or the error
// that rejects it. A continuous table aggregate has no event: it is
// compiled when classified.
type ruleShape struct {
	rule  *overlog.Rule
	event *overlog.Atom
	rest  []overlog.Term
	kind  TriggerKind
	err   error
}

// addRules compiles rules into p, each stream rule lowered once, in the
// body order planned under st (textual when st is nil). Every rule is
// classified first, so all table aggregates are registered before any
// rule is planned: planning reads them (syncWrites), wherever in the
// source they stand. Errors are reported in source order.
func (p *Plan) addRules(rules []*overlog.Rule, st *CatalogStats) error {
	shapes := make([]ruleShape, len(rules))
	for i, r := range rules {
		shapes[i] = p.classify(r)
	}
	for i := range shapes {
		s := &shapes[i]
		if s.err != nil {
			return s.err
		}
		if s.event == nil {
			continue
		}
		rule, err := p.lower(s, st)
		if err != nil {
			return err
		}
		p.Rules = append(p.Rules, rule)
	}
	return nil
}

// lower lowers s in the order the planner picks for it under st, or
// textually when st is nil or the rule is not planned. The planned order
// can bind a variable twice where the textual one does not; such a rule
// is lowered textually instead, so Compile accepts exactly the programs
// CompileTextual accepts.
func (p *Plan) lower(s *ruleShape, st *CatalogStats) (*Rule, error) {
	if st != nil {
		if order, cost, fold, ok := p.planRule(s, st); ok {
			if r, err := p.lowerRule(s, order, fold); err == nil {
				r.CostEst = cost
				return r, nil
			}
		}
	}
	return p.lowerRule(s, nil, false)
}

// lowerRule lowers one stream rule into its strand, visiting the
// non-event body terms in the given order (indices into their textual
// sequence; nil means textual). The variable environment lays out
// working-tuple positions for whatever order it is handed, so join keys,
// selections and head projections are consistent by construction. fold
// asks for the aggregate-into-join fusion (see Fold); the structural
// check in tryFold may still decline it.
func (p *Plan) lowerRule(s *ruleShape, order []int, fold bool) (*Rule, error) {
	r := s.rule
	c := &ruleCtx{plan: p, rule: r, env: make(map[string]int)}
	trig, err := c.compileTrigger(s.event, s.kind)
	if err != nil {
		return nil, err
	}
	// Bind event atom arguments.
	if err := c.bindAtomArgs(s.event, 0, true); err != nil {
		return nil, err
	}
	c.width = len(s.event.Args)

	terms := s.rest
	if order != nil {
		terms = make([]overlog.Term, len(order))
		for i, idx := range order {
			terms[i] = s.rest[idx]
		}
	}
	for _, t := range terms {
		switch term := t.(type) {
		case *overlog.Atom:
			if err := c.compileBodyAtom(term); err != nil {
				return nil, err
			}
		case *overlog.Assign:
			if _, dup := c.env[term.Var]; dup {
				return nil, c.errf("variable %s assigned twice", term.Var)
			}
			prog, err := c.compileExpr(term.Expr)
			if err != nil {
				return nil, err
			}
			c.assign(prog)
			c.env[term.Var] = c.width
			c.width++
		case *overlog.Cond:
			prog, err := c.compileExpr(term.Expr)
			if err != nil {
				return nil, err
			}
			c.sel(prog)
		}
	}

	if fold {
		c.tryFold()
	}

	rule := &Rule{
		ID:           r.ID,
		HeadName:     r.Head.Name,
		Delete:       r.Delete,
		Trigger:      trig,
		Ops:          c.ops,
		Materialized: p.IsTable(r.Head.Name),
		Order:        order,
	}
	if r.Delete && !rule.Materialized {
		return nil, c.errf("delete head %s is not a materialized table", r.Head.Name)
	}
	if err := c.compileHead(rule, len(s.event.Args)); err != nil {
		return nil, err
	}
	if c.folded {
		// The folded join carries the aggregate; no AggStream stage runs.
		rule.Agg = nil
	}
	rule.orderStr = rule.renderOrder()
	return rule, nil
}

// lastJoin returns the strand's last op if it is a positive join, the
// op the selections and assignments after it fuse into.
func (c *ruleCtx) lastJoin() *OpJoin {
	if len(c.ops) == 0 {
		return nil
	}
	if j, ok := c.ops[len(c.ops)-1].(*OpJoin); ok && !j.Neg {
		return j
	}
	return nil
}

// sel appends a selection. Right after a positive join it is fused into
// the probe, so filtered matches never build a concatenated tuple.
func (c *ruleCtx) sel(prog *pel.Program) {
	if j := c.lastJoin(); j != nil && len(j.Assigns) == 0 {
		j.Filters = append(j.Filters, prog)
		return
	}
	c.ops = append(c.ops, &OpSelect{Prog: prog})
}

// assign appends an assignment extending the working tuple by one field.
// It joins the positive join or the assignment run right before it, so
// a run of assignments builds one tuple, not one per step.
func (c *ruleCtx) assign(prog *pel.Program) {
	if j := c.lastJoin(); j != nil {
		j.Assigns = append(j.Assigns, prog)
		return
	}
	if len(c.ops) > 0 {
		if a, ok := c.ops[len(c.ops)-1].(*OpAssign); ok {
			a.Progs = append(a.Progs, prog)
			return
		}
	}
	c.ops = append(c.ops, &OpAssign{Progs: []*pel.Program{prog}})
}

// checkCollocation enforces the single-location-variable restriction on
// rule bodies (§7: "our planner currently handles rules with collocated
// terms only").
func (c *ruleCtx) checkCollocation() error {
	loc := ""
	for _, t := range c.rule.Body {
		a, ok := t.(*overlog.Atom)
		if !ok {
			continue
		}
		if a.Loc == "" {
			continue
		}
		if loc == "" {
			loc = a.Loc
		} else if loc != a.Loc {
			return c.errf("multi-node rule body (@%s and @%s); rewrite with collocated terms as in Appendix A", loc, a.Loc)
		}
	}
	// Located function calls must match the body location.
	bad := ""
	for _, t := range c.rule.Body {
		var e overlog.Expr
		switch term := t.(type) {
		case *overlog.Assign:
			e = term.Expr
		case *overlog.Cond:
			e = term.Expr
		default:
			continue
		}
		overlog.Walk(e, func(e overlog.Expr) {
			if x, ok := e.(*overlog.Call); ok && bad == "" && x.Loc != "" && x.Loc != loc {
				bad = x.Name + "@" + x.Loc
			}
		})
		if bad != "" {
			return c.errf("function %s located off the rule body", bad)
		}
	}
	if c.rule.Delete && c.rule.Head.Loc != "" && loc != "" && c.rule.Head.Loc != loc {
		return c.errf("delete heads must be local to the rule body")
	}
	return nil
}

// classify checks the rule's order-independent restrictions and finds
// its event and trigger kind, or compiles it as a continuous table
// aggregate.
func (p *Plan) classify(r *overlog.Rule) ruleShape {
	c := &ruleCtx{plan: p, rule: r, env: make(map[string]int)}
	s := ruleShape{rule: r}
	// Rules may join and aggregate the sys* system tables but never
	// write them: the runtime owns their contents, and a spoofed or
	// deleted row would silently corrupt every monitor built on them.
	if introspect.IsReserved(r.Head.Name) {
		s.err = c.errf("head %s writes into the reserved system-table namespace (%q prefix); system tables are read-only from OverLog", r.Head.Name, introspect.ReservedPrefix)
		return s
	}
	if s.err = c.checkCollocation(); s.err != nil {
		return s
	}
	var streams []*overlog.Atom
	var firstTable *overlog.Atom
	atomCount := 0
	for _, t := range r.Body {
		a, ok := t.(*overlog.Atom)
		if !ok || a.Neg {
			continue
		}
		atomCount++
		switch {
		case a.Name == "periodic":
			streams = append(streams, a)
		case a.Name == "range":
			// generator, never a trigger
		case p.IsTable(a.Name):
			if firstTable == nil {
				firstTable = a
			}
		default:
			streams = append(streams, a)
		}
	}
	if len(streams) > 1 {
		s.err = c.errf("two event streams (%s, %s) in one body: only stream x table equijoins are supported; split the rule", streams[0].Name, streams[1].Name)
		return s
	}
	if len(streams) == 1 {
		s.event = streams[0]
		s.kind = TrigStream
		if s.event.Name == "periodic" {
			s.kind = TrigPeriodic
		}
	} else {
		if firstTable == nil {
			s.err = c.errf("no triggering predicate in body")
			return s
		}
		// A lone-table body with an aggregate head is a continuous
		// table aggregate.
		if agg, _, _ := headAgg(r.Head); agg != nil && atomCount == 1 && len(r.Body) == 1 {
			s.err = p.compileTableAgg(r, firstTable)
			return s
		}
		s.event = firstTable
		s.kind = TrigDelta
	}
	for _, t := range r.Body {
		if a, ok := t.(*overlog.Atom); ok && a == s.event {
			continue
		}
		s.rest = append(s.rest, t)
	}
	return s
}

// headAgg returns the head's first aggregate and its argument index,
// or nil and -1 when the head has none; many reports a second one.
func headAgg(h *overlog.Atom) (agg *overlog.AggRef, at int, many bool) {
	at = -1
	for i, a := range h.Args {
		if ar, ok := a.(*overlog.AggRef); ok {
			if agg != nil {
				return agg, at, true
			}
			agg, at = ar, i
		}
	}
	return agg, at, false
}

func (c *ruleCtx) compileTrigger(event *overlog.Atom, kind TriggerKind) (Trigger, error) {
	trig := Trigger{Kind: kind, Name: event.Name, Arity: len(event.Args)}
	if kind != TrigPeriodic {
		return trig, nil
	}
	if len(event.Args) < 3 {
		return trig, c.errf("periodic needs (Node, Event, Period) arguments")
	}
	period, ok := constNumber(c.plan.resolve(event.Args[2]))
	if !ok {
		return trig, c.errf("periodic period must be a constant")
	}
	trig.Period = period
	if len(event.Args) >= 4 {
		count, ok := constNumber(c.plan.resolve(event.Args[3]))
		if !ok {
			return trig, c.errf("periodic count must be a constant")
		}
		trig.Count = int64(count)
	}
	for _, a := range event.Args[2:] {
		if lit, ok := c.plan.resolve(a).(*overlog.Lit); ok {
			trig.Extra = append(trig.Extra, lit.Val)
		} else {
			trig.Extra = append(trig.Extra, val.Null)
		}
	}
	return trig, nil
}

func constNumber(e overlog.Expr) (float64, bool) {
	if lit, ok := e.(*overlog.Lit); ok {
		return lit.Val.AsFloat(), true
	}
	return 0, false
}

// bindAtomArgs binds variables of an atom whose fields occupy working
// positions base..base+len(args)-1, generating equality selections for
// literals and repeated variables.
func (c *ruleCtx) bindAtomArgs(a *overlog.Atom, base int, isEvent bool) error {
	for i, raw := range a.Args {
		pos := base + i
		switch arg := c.plan.resolve(raw).(type) {
		case *overlog.Wildcard:
			// don't care
		case *overlog.VarRef:
			if prev, bound := c.env[arg.Name]; bound {
				c.sel(pel.NewBuilder().Field(pos).Field(prev).Op(pel.OpEq).Build())
			} else {
				c.env[arg.Name] = pos
			}
		case *overlog.Lit:
			c.sel(pel.NewBuilder().Field(pos).Const(arg.Val).Op(pel.OpEq).Build())
		case *overlog.ConstRef:
			return c.errf("undefined constant %q in %s", arg.Name, a.Name)
		default:
			return c.errf("%s argument %d must be a variable or constant", a.Name, i)
		}
	}
	return nil
}

// compileBodyAtom turns a non-event body atom into a join, antijoin, or
// range generator.
func (c *ruleCtx) compileBodyAtom(a *overlog.Atom) error {
	if a.Name == "range" {
		return c.compileRange(a)
	}
	if !c.plan.IsTable(a.Name) {
		return c.errf("two event streams in one body (%s): only stream x table equijoins are supported; split the rule", a.Name)
	}

	var streamKey, tableKey []int
	type lateBind struct {
		name string
		pos  int // atom-relative position
	}
	var newVars []lateBind
	var dupPairs [][2]int // atom-relative positions that must be equal

	for i, raw := range a.Args {
		switch arg := c.plan.resolve(raw).(type) {
		case *overlog.Wildcard:
		case *overlog.VarRef:
			if prev, bound := c.env[arg.Name]; bound {
				streamKey = append(streamKey, prev)
				tableKey = append(tableKey, i)
				continue
			}
			// A fresh variable repeated within the atom becomes a
			// post-join equality between table positions.
			fresh := -1
			for _, nv := range newVars {
				if nv.name == arg.Name {
					fresh = nv.pos
					break
				}
			}
			if fresh >= 0 {
				dupPairs = append(dupPairs, [2]int{fresh, i})
			} else {
				newVars = append(newVars, lateBind{arg.Name, i})
			}
		case *overlog.Lit:
			// Extend the working tuple with the constant so it can
			// participate in the index key.
			c.assign(pel.NewBuilder().Const(arg.Val).Build())
			streamKey = append(streamKey, c.width)
			c.width++
			tableKey = append(tableKey, i)
		case *overlog.ConstRef:
			return c.errf("undefined constant %q in %s", arg.Name, a.Name)
		default:
			return c.errf("%s argument %d must be a variable or constant", a.Name, i)
		}
	}

	if a.Neg {
		// Fresh variables in a negated atom are existential; nothing
		// binds. Using one later trips the unbound-variable error.
		if len(streamKey) == 0 {
			return c.errf("negated atom %s shares no variables with the rule", a.Name)
		}
		if len(dupPairs) > 0 {
			return c.errf("repeated fresh variable in negated atom %s", a.Name)
		}
		c.ops = append(c.ops, &OpJoin{Table: a.Name, StreamKey: streamKey, TableKey: tableKey, Neg: true})
		return nil
	}

	if len(streamKey) == 0 {
		return c.errf("join with %s shares no variables (cartesian products are not supported)", a.Name)
	}
	base := c.width
	c.ops = append(c.ops, &OpJoin{Table: a.Name, StreamKey: streamKey, TableKey: tableKey})
	for _, pair := range dupPairs {
		c.sel(pel.NewBuilder().Field(base + pair[0]).Field(base + pair[1]).Op(pel.OpEq).Build())
	}
	for _, nv := range newVars {
		c.env[nv.name] = base + nv.pos
	}
	c.width = base + len(a.Args)
	return nil
}

func (c *ruleCtx) compileRange(a *overlog.Atom) error {
	if len(a.Args) != 3 {
		return c.errf("range needs (Var, Lo, Hi)")
	}
	v, ok := c.plan.resolve(a.Args[0]).(*overlog.VarRef)
	if !ok {
		return c.errf("range first argument must be a fresh variable")
	}
	if _, bound := c.env[v.Name]; bound {
		return c.errf("range variable %s already bound", v.Name)
	}
	lo, err := c.compileExpr(a.Args[1])
	if err != nil {
		return err
	}
	hi, err := c.compileExpr(a.Args[2])
	if err != nil {
		return err
	}
	c.ops = append(c.ops, &OpRange{Lo: lo, Hi: hi})
	c.env[v.Name] = c.width
	c.width++
	return nil
}

// tryFold fuses the rule's aggregate into its final join (see Fold)
// when the head carries one min/max/count aggregate. It is asked only
// for a fully reorderable rule, whose min/max head fields are all
// event-bound (ruleMode), so the per-match working tuples the fusion
// skips were never observable; a count head that is not event-bound
// fails in compileHead, folded or not. Structural
// requirements: the strand ends in a positive join whose fused steps
// are selections plus at most one assignment, which must define the
// aggregate's value (it becomes the fold input, evaluated over the
// virtual concatenation — an erroring input drops the match exactly as
// the assignment would). Any other shape declines silently and the rule
// keeps its aggregate stage.
func (c *ruleCtx) tryFold() {
	aggArg, _, many := headAgg(c.rule.Head)
	if aggArg == nil || many {
		return
	}
	fn, err := aggFunc(aggArg.Fn)
	if err != nil || (fn != dataflow.AggMin && fn != dataflow.AggMax && fn != dataflow.AggCount) {
		return
	}
	aggPos := -1
	if aggArg.Var != "*" {
		pos, bound := c.env[aggArg.Var]
		if !bound {
			return // compileHead will report the unbound variable
		}
		aggPos = pos
	}
	join := c.lastJoin()
	if join == nil || len(join.Assigns) > 1 {
		return // antijoin, range, selection or assignments after the last join
	}
	fold := &Fold{Fn: fn}
	switch {
	case len(join.Assigns) == 1:
		if aggPos != c.width-1 {
			return // the assignment is not the aggregate input
		}
		fold.Input = join.Assigns[0]
	case aggPos >= 0:
		fold.Input = pel.NewBuilder().Field(aggPos).Build()
	}
	if fn != dataflow.AggCount && fold.Input != nil {
		split := c.width - len(join.Assigns) - c.plan.Arities[join.Table] // where match columns start in input++match
		fold.Distinct = matchReads(split, append([]*pel.Program{fold.Input}, join.Filters...))
	}
	join.Assigns, join.Fold = nil, fold
	c.folded = true
}

// matchReads returns, sorted, the match columns the programs read from
// the virtual concatenation stream++match (positions from split on,
// shifted down), or nil if any program is impure.
func matchReads(split int, progs []*pel.Program) []int {
	var cols []int
	for _, p := range progs {
		fields, pure := p.Reads()
		if !pure {
			return nil
		}
		for _, f := range fields {
			if f >= split && !slices.Contains(cols, f-split) {
				cols = append(cols, f-split)
			}
		}
	}
	slices.Sort(cols)
	return cols
}

// compileHead builds the head projection and aggregate specification.
func (c *ruleCtx) compileHead(rule *Rule, eventArity int) error {
	head := c.rule.Head
	aggArg, aggIndex, many := headAgg(head)
	if many {
		return c.errf("multiple aggregates in head")
	}
	if err := c.checkHeadLoc(head, aggArg); err != nil {
		return err
	}

	if aggArg == nil {
		for _, a := range head.Args {
			prog, err := c.compileExpr(a)
			if err != nil {
				return err
			}
			rule.HeadProgs = append(rule.HeadProgs, prog)
		}
		return nil
	}

	fn, err := aggFunc(aggArg.Fn)
	if err != nil {
		return c.errf("%v", err)
	}
	agg := &StreamAgg{Fn: fn, AggPos: -1}
	if aggArg.Var != "*" {
		pos, bound := c.env[aggArg.Var]
		if !bound {
			return c.errf("aggregate variable %s is unbound", aggArg.Var)
		}
		agg.AggPos = pos
	} else if fn != dataflow.AggCount {
		return c.errf("%s<*> is only valid for count", aggArg.Fn)
	}
	rule.Agg = agg

	switch {
	case (fn == dataflow.AggMin || fn == dataflow.AggMax) && !c.folded:
		// Exemplar semantics: head programs run against the winning
		// working tuple; the aggregate argument reads its own position.
		for i, a := range head.Args {
			if i == aggIndex {
				rule.HeadProgs = append(rule.HeadProgs,
					pel.NewBuilder().Field(agg.AggPos).Build())
				continue
			}
			prog, err := c.compileExpr(a)
			if err != nil {
				return err
			}
			rule.HeadProgs = append(rule.HeadProgs, prog)
		}
	default:
		// Accumulator semantics: head programs run against the event
		// tuple extended with the aggregate value; every non-aggregate
		// head field must be event-bound.
		for i, a := range head.Args {
			if i == aggIndex {
				rule.HeadProgs = append(rule.HeadProgs,
					pel.NewBuilder().Field(eventArity).Build())
				continue
			}
			v := ""
			overlog.Walk(a, func(e overlog.Expr) {
				if x, ok := e.(*overlog.VarRef); ok && v == "" {
					if pos, bound := c.env[x.Name]; bound && pos >= eventArity {
						v = x.Name
					}
				}
			})
			if v != "" {
				return c.errf("%s head field %s is not bound by the event; %s aggregates require event-bound fields", aggArg.Fn, v, aggArg.Fn)
			}
			prog, err := c.compileExpr(a)
			if err != nil {
				return err
			}
			rule.HeadProgs = append(rule.HeadProgs, prog)
		}
	}
	return nil
}

// checkHeadLoc enforces the convention that the head's location
// variable is its first argument.
func (c *ruleCtx) checkHeadLoc(head *overlog.Atom, agg *overlog.AggRef) error {
	if head.Loc == "" {
		return nil
	}
	if len(head.Args) == 0 {
		return c.errf("located head %s has no arguments", head.Name)
	}
	switch a := head.Args[0].(type) {
	case *overlog.VarRef:
		if a.Name == head.Loc {
			return nil
		}
	case *overlog.AggRef:
		if a.Var == head.Loc {
			return nil
		}
	}
	return c.errf("head location @%s must be the first head argument", head.Loc)
}

func aggFunc(name string) (dataflow.AggFunc, error) {
	switch name {
	case "min":
		return dataflow.AggMin, nil
	case "max":
		return dataflow.AggMax, nil
	case "count":
		return dataflow.AggCount, nil
	case "sum":
		return dataflow.AggSum, nil
	case "avg":
		return dataflow.AggAvg, nil
	}
	return 0, fmt.Errorf("unknown aggregate %q", name)
}

// compileTableAgg handles rules like "bestSuccDist(NI, min<D>) :-
// succDist(NI, S, D)": a continuous aggregate over one table.
func (p *Plan) compileTableAgg(r *overlog.Rule, atom *overlog.Atom) error {
	c := &ruleCtx{plan: p, rule: r, env: make(map[string]int)}
	if r.Delete {
		return c.errf("table aggregates cannot be deletions")
	}
	// Bind atom argument positions.
	for i, raw := range atom.Args {
		switch arg := p.resolve(raw).(type) {
		case *overlog.VarRef:
			if _, dup := c.env[arg.Name]; !dup {
				c.env[arg.Name] = i
			}
		case *overlog.Wildcard:
		default:
			return c.errf("table aggregate body arguments must be variables")
		}
	}
	var aggArg *overlog.AggRef
	ta := &TableAggRule{
		ID:           r.ID,
		Table:        atom.Name,
		HeadName:     r.Head.Name,
		Materialized: p.IsTable(r.Head.Name),
	}
	var groupOrds []int // head arg index -> group ordinal
	for _, raw := range r.Head.Args {
		if ar, ok := raw.(*overlog.AggRef); ok {
			if aggArg != nil {
				return c.errf("multiple aggregates in head")
			}
			aggArg = ar
			groupOrds = append(groupOrds, -1)
			continue
		}
		v, ok := p.resolve(raw).(*overlog.VarRef)
		if !ok {
			return c.errf("table aggregate head fields must be variables")
		}
		pos, bound := c.env[v.Name]
		if !bound {
			return c.errf("head variable %s not bound by %s", v.Name, atom.Name)
		}
		groupOrds = append(groupOrds, len(ta.GroupPos))
		ta.GroupPos = append(ta.GroupPos, pos)
	}
	if aggArg == nil {
		return c.errf("table aggregate rule lacks an aggregate") // unreachable by classify
	}
	fn, err := aggFunc(aggArg.Fn)
	if err != nil {
		return c.errf("%v", err)
	}
	ta.Fn = fn
	if aggArg.Var == "*" {
		if fn != dataflow.AggCount {
			return c.errf("%s<*> is only valid for count", aggArg.Fn)
		}
		ta.AggPos = 0
	} else {
		pos, bound := c.env[aggArg.Var]
		if !bound {
			return c.errf("aggregate variable %s not bound by %s", aggArg.Var, atom.Name)
		}
		ta.AggPos = pos
	}
	if err := c.checkHeadLoc(r.Head, aggArg); err != nil {
		return err
	}
	// Head projection over [group fields..., aggregate].
	for i := range r.Head.Args {
		ord := groupOrds[i]
		if ord < 0 {
			ord = len(ta.GroupPos)
		}
		ta.HeadProgs = append(ta.HeadProgs, pel.NewBuilder().Field(ord).Build())
	}
	p.TableAggs = append(p.TableAggs, ta)
	return nil
}

// compileExpr lowers an OverLog expression to PEL against the current
// variable environment.
func (c *ruleCtx) compileExpr(e overlog.Expr) (*pel.Program, error) {
	b := pel.NewBuilder()
	if err := c.emit(b, c.plan.resolve(e)); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

var binOps = map[string]pel.Op{
	"+": pel.OpAdd, "-": pel.OpSub, "*": pel.OpMul, "/": pel.OpDiv,
	"%": pel.OpMod, "<<": pel.OpShl, ">>": pel.OpShr,
	"==": pel.OpEq, "!=": pel.OpNe, "<": pel.OpLt, "<=": pel.OpLe,
	">": pel.OpGt, ">=": pel.OpGe, "&&": pel.OpAnd, "||": pel.OpOr,
}

// builtins holds each built-in function's argument count and the PEL
// operator that computes it from its arguments.
var builtins = map[string]struct {
	args int
	op   pel.Op
}{
	"f_now": {0, pel.OpNow}, "f_rand": {0, pel.OpRand}, "f_localAddr": {0, pel.OpLocal},
	"f_coinFlip": {1, pel.OpCoinFlip}, "f_sha1": {1, pel.OpSha1},
	"f_toID": {1, pel.OpToID}, "f_toStr": {1, pel.OpToStr},
}

func (c *ruleCtx) emit(b *pel.Builder, e overlog.Expr) error {
	switch x := e.(type) {
	case *overlog.Lit:
		b.Const(x.Val)
	case *overlog.VarRef:
		pos, ok := c.env[x.Name]
		if !ok {
			return c.errf("unbound variable %s", x.Name)
		}
		b.Field(pos)
	case *overlog.ConstRef:
		return c.errf("undefined constant %q (add a define or pass it at compile time)", x.Name)
	case *overlog.Wildcard:
		return c.errf("wildcard in expression")
	case *overlog.Unary:
		if err := c.emit(b, x.X); err != nil {
			return err
		}
		switch x.Op {
		case "-":
			b.Op(pel.OpNeg)
		case "!":
			b.Op(pel.OpNot)
		default:
			return c.errf("unknown unary operator %q", x.Op)
		}
	case *overlog.Binary:
		op, ok := binOps[x.Op]
		if !ok {
			return c.errf("unknown operator %q", x.Op)
		}
		if err := c.emit(b, x.X); err != nil {
			return err
		}
		if err := c.emit(b, x.Y); err != nil {
			return err
		}
		b.Op(op)
	case *overlog.RangeTest:
		if err := c.emit(b, x.K); err != nil {
			return err
		}
		if err := c.emit(b, x.Lo); err != nil {
			return err
		}
		if err := c.emit(b, x.Hi); err != nil {
			return err
		}
		b.In(x.LoClosed, x.HiClosed)
	case *overlog.Call:
		fn, ok := builtins[x.Name]
		if !ok {
			return c.errf("unknown function %s", x.Name)
		}
		if len(x.Args) != fn.args {
			return c.errf("%s expects %d argument(s), got %d", x.Name, fn.args, len(x.Args))
		}
		for _, a := range x.Args {
			if err := c.emit(b, a); err != nil {
				return err
			}
		}
		b.Op(fn.op)
	case *overlog.AggRef:
		return c.errf("aggregate %s<%s> outside rule head", x.Fn, x.Var)
	default:
		return c.errf("unsupported expression %T", e)
	}
	return nil
}
