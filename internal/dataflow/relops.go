package dataflow

import (
	"p2/internal/pel"
	"p2/internal/table"
	"p2/internal/tuple"
	"p2/internal/val"
)

// The relational elements below are the database half of P2 (§3.4):
// equijoins of a stream against a table, PEL-driven selections and
// projections, and aggregations. Each may emit zero or more tuples
// downstream per input. Writing a derived tuple into a table, or
// deleting one, is the engine's deliverHead, not an element.

// probe is the index lookup Join, FoldJoin and NotJoin share: the
// index ordinal and the input positions the probe key is rendered from,
// and the fused filters, run over the virtual concatenation
// input++match before any tuple is built. OverLog join bodies are
// dominated by range predicates that keep one match in many (Chord's
// "K in (N, S]" finger walks), so filtering during the probe removes
// most of a strand's tuple construction. A filter that fails or errors
// skips the match, exactly as a Select after the join would.
type probe struct {
	ix        int   // ordinal of the probed index in Ctx.Indexes
	streamKey []int // key positions in the incoming tuple
	filters   []*pel.Program
}

func newProbe(ix int, streamKey []int, filters []*pel.Program) probe {
	return probe{ix: ix, streamKey: append([]int(nil), streamKey...), filters: filters}
}

// pass reports whether match m survives every filter over t++m.
func (p *probe) pass(c *Ctx, t, m *tuple.Tuple) bool {
	for _, f := range p.filters {
		v, err := c.vm.EvalJoined(f, t, m, c.Env)
		if err != nil || !v.AsBool() {
			return false
		}
	}
	return true
}

// Join is the stream×table equijoin at the core of OverLog execution
// (§2.5). For each pushed tuple it looks up matches in the table's
// secondary index and emits one concatenated tuple per match that
// passes its filters: fields(input) ++ fields(match), under the
// configured output name, extended by its assignments. Those are the
// run of "X := expr" steps that follows the join in the rule: the tuple
// is built once at its final arity and each program fills the next
// slot, exactly as a downstream MultiAssign would — minus that
// element's second tuple construction per match.
//
// The probe allocates nothing: the index handle is the node's, resolved
// once when it was created, the probe key renders onto the node's key
// stack, matches are visited in place via Index.Each rather than
// collected into a result slice, and each emitted tuple is a working
// tuple taken from the node's Scratch and released once the downstream
// Push returns.
type Join struct {
	Base
	probe
	assigns []*pel.Program
	outName string
}

// NewJoin builds an equijoin element probing index ordinal ix with the
// key at streamKey, with its filters and assignments.
func NewJoin(ix int, streamKey []int, filters, assigns []*pel.Program, outName string) *Join {
	return &Join{probe: newProbe(ix, streamKey, filters), assigns: assigns, outName: outName}
}

// Push probes the table and emits all surviving matches downstream.
func (j *Join) Push(c *Ctx, t *tuple.Tuple) {
	na := t.Arity()
	key, mk := c.pushKey(t, j.streamKey)
	c.Indexes[j.ix].Each(key, func(m *tuple.Tuple) bool {
		c.Probes++
		j.emitMatch(c, t, na, m)
		return true
	})
	c.popKey(mk)
}

// emitMatch runs the filters and assignments against one candidate row
// and pushes the concatenated working tuple; filtered or underivable
// matches are simply skipped.
func (j *Join) emitMatch(c *Ctx, t *tuple.Tuple, na int, m *tuple.Tuple) {
	if !j.pass(c, t, m) {
		return
	}
	base := na + m.Arity()
	out, fields, mk := c.Scratch.take(j.outName, base+len(j.assigns))
	defer c.Scratch.release(mk)
	copy(fields, t.Fields())
	copy(fields[na:], m.Fields())
	for i, prog := range j.assigns {
		// Each assignment sees the fields earlier ones filled; the
		// tuple goes downstream only after every slot is in place.
		v, err := c.vm.Eval(prog, out, c.Env)
		if err != nil {
			return // underivable match dropped, as MultiAssign would
		}
		fields[base+i] = v
	}
	j.PushOut(c, out)
}

// NotJoin is the antijoin used for "not pred(...)" bodies: the input
// passes through unchanged iff the table contains no match.
type NotJoin struct {
	Base
	probe
}

// NewNotJoin builds an antijoin element probing index ordinal ix.
func NewNotJoin(ix int, streamKey []int) *NotJoin {
	return &NotJoin{probe: newProbe(ix, streamKey, nil)}
}

// Push forwards t iff the table has no matching row.
func (j *NotJoin) Push(c *Ctx, t *tuple.Tuple) {
	key, mk := c.pushKey(t, j.streamKey)
	found := c.Indexes[j.ix].Contains(key)
	c.popKey(mk)
	if found {
		return // match exists: tuple eliminated
	}
	j.PushOut(c, t)
}

// Select filters tuples through a boolean PEL program.
type Select struct {
	Base
	prog *pel.Program
}

// NewSelect builds a PEL-parameterized filter.
func NewSelect(prog *pel.Program) *Select { return &Select{prog: prog} }

// Push forwards t iff the program evaluates truthy. Evaluation errors
// drop the tuple — a rule body that fails to evaluate derives nothing.
func (s *Select) Push(c *Ctx, t *tuple.Tuple) {
	v, err := c.vm.Eval(s.prog, t, c.Env)
	if err != nil || !v.AsBool() {
		return
	}
	s.PushOut(c, t)
}

// MultiAssign evaluates a run of consecutive "X := expr" steps, each
// appending its result as a new trailing field — how assignments extend
// a rule's binding environment. Where one element per step would build
// k intermediate tuples of growing arity, the fused run extends the
// binding environment once.
// OverLog rule bodies routinely carry several ":=" steps (Chord's
// lookup rules compute hashes, ranges, and candidate successors in
// sequence), so the fusion removes most of a strand's intermediate
// tuple construction. The planner lowers each run to one element.
type MultiAssign struct {
	Base
	progs []*pel.Program
}

// NewMultiAssign builds a fused run of appending evaluators; each
// program appends one trailing field, in order.
func NewMultiAssign(progs []*pel.Program) *MultiAssign { return &MultiAssign{progs: progs} }

// Push emits t extended with every evaluated value. Later programs see
// the fields earlier ones appended, exactly as a chain of one-step
// elements would:
// the working tuple is taken first (unset trailing fields read as Null)
// and each evaluation fills the next slot before the following program
// runs. The tuple goes downstream only once every field is in place, so
// the in-place writes never touch a tuple another element can observe.
// Any evaluation error drops the tuple.
func (a *MultiAssign) Push(c *Ctx, t *tuple.Tuple) {
	n := t.Arity()
	out, fields, mk := c.Scratch.take(t.Name(), n+len(a.progs))
	defer c.Scratch.release(mk)
	copy(fields, t.Fields())
	for i, prog := range a.progs {
		v, err := c.vm.Eval(prog, out, c.Env)
		if err != nil {
			return
		}
		fields[n+i] = v
	}
	a.PushOut(c, out)
}

// Project constructs the rule-head tuple: one PEL program per output
// field, evaluated against the incoming (joined, extended) working
// tuple, and hands it to the node with the rule ordinal it was built
// for. It ends every strand, and it is the one strand element that
// allocates: the head is the only tuple that leaves the strand.
type Project struct {
	outName string
	progs   []*pel.Program
	rule    int
}

// NewProject builds a head constructor delivering as rule.
func NewProject(outName string, progs []*pel.Program, rule int) *Project {
	return &Project{outName: outName, progs: progs, rule: rule}
}

// Push derives the head tuple and delivers it.
func (p *Project) Push(c *Ctx, t *tuple.Tuple) {
	fields := make([]val.Value, len(p.progs))
	for i, prog := range p.progs {
		v, err := c.vm.Eval(prog, t, c.Env)
		if err != nil {
			return // head underivable; drop
		}
		fields[i] = v
	}
	c.Deliver(p.rule, tuple.New(p.outName, fields...))
}

// AggFunc names an aggregate function.
type AggFunc int

// The aggregate functions OverLog supports in rule heads.
const (
	AggMin AggFunc = iota
	AggMax
	AggCount
	AggSum
	AggAvg
)

// String returns the OverLog spelling.
func (f AggFunc) String() string {
	switch f {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggCount:
		return "count"
	case AggSum:
		return "sum"
	case AggAvg:
		return "avg"
	}
	return "agg?"
}

// AggStream performs per-event aggregation for rules whose head carries
// an aggregate (e.g. L2's min<D>, Narada P0's max<R>).
//
// Because a strand processes exactly one event per flush, and every
// non-aggregate head field is bound by the triggering event, there is
// exactly one group per event. Two semantics apply, matching P2:
//
//   - min/max are EXEMPLAR aggregates: Flush emits the entire working
//     tuple of the row that achieved the extremum. Non-event-bound head
//     fields (like the member address Y in P0's "pick the member with
//     the max random number") therefore come from the winning row. The
//     rows arrive as working tuples that are rewritten once their Push
//     returns, so the exemplar is a copy in a buffer of the node's own.
//   - count/sum/avg are accumulators: Flush emits the event tuple with
//     the aggregate value appended. count emits even when zero rows
//     arrived — Narada's R5/R6 "membersFound ... C == 0" idiom; sum and
//     avg emit only when at least one row arrived.
//
// What accumulates between Push and Flush is the node's: its Ctx slot.
type AggStream struct {
	Base
	fn     AggFunc
	aggPos int // aggregated field position in the working tuple; -1 for count<*>
	slot   int // the accumulator's slot in Ctx
}

// streamState is one node's accumulator for one AggStream.
type streamState struct {
	count   int64
	sum     float64
	seen    bool
	best    tuple.Tuple // the exemplar, over bestBuf
	bestBuf []val.Value
	bestVal val.Value
}

// NewAggStream builds a per-event aggregator whose accumulator is Ctx
// slot slot.
func NewAggStream(fn AggFunc, aggPos, slot int) *AggStream {
	return &AggStream{fn: fn, aggPos: aggPos, slot: slot}
}

// Push accumulates one working tuple.
func (a *AggStream) Push(c *Ctx, t *tuple.Tuple) {
	st := c.stream(a.slot)
	st.count++
	switch a.fn {
	case AggMin, AggMax:
		if v := t.Field(a.aggPos); !st.seen || improves(a.fn, v, st.bestVal) {
			st.bestBuf = append(st.bestBuf[:0], t.Fields()...)
			st.best.Reset(t.Name(), st.bestBuf)
			st.seen, st.bestVal = true, v
		}
	case AggSum, AggAvg:
		st.sum += t.Field(a.aggPos).AsFloat()
	}
}

// improves reports whether v displaces cur as fn's extremum; ties keep
// cur, so the first row to reach an extremum is its exemplar.
func improves(fn AggFunc, v, cur val.Value) bool {
	c := v.Cmp(cur)
	return (fn == AggMin && c < 0) || (fn == AggMax && c > 0)
}

// Flush emits the aggregate result and resets for the next event.
// For min/max the winning row's copy flows downstream (its aggPos field
// already holds the extremum). For count/sum/avg the event tuple flows
// with the aggregate appended as a trailing field, in a working tuple.
func (a *AggStream) Flush(c *Ctx, event *tuple.Tuple) {
	st := c.stream(a.slot)
	defer st.reset()
	switch a.fn {
	case AggMin, AggMax:
		if st.seen {
			a.PushOut(c, &st.best)
		}
	case AggCount:
		if event != nil {
			emitAppended(c, &a.Base, event, val.Int(st.count))
		}
	case AggSum, AggAvg:
		if event == nil || st.count == 0 {
			return
		}
		v := st.sum
		if a.fn == AggAvg {
			v /= float64(st.count)
		}
		emitAppended(c, &a.Base, event, val.Float(v))
	}
}

func (st *streamState) reset() {
	st.count, st.sum, st.seen, st.bestVal = 0, 0, false, val.Null
}

// emitAppended pushes event ++ v through b as a working tuple taken
// from c's scratch — the output of every per-event accumulator.
func emitAppended(c *Ctx, b *Base, event *tuple.Tuple, v val.Value) {
	out, fields, mk := c.Scratch.take(event.Name(), event.Arity()+1)
	defer c.Scratch.release(mk)
	copy(fields, event.Fields())
	fields[len(fields)-1] = v
	b.PushOut(c, out)
}

// aggState accumulates one table-aggregate group.
type aggState struct {
	group []val.Value
	best  val.Value
	sum   float64
	count int64
}

func (s *aggState) add(fn AggFunc, v val.Value) {
	s.count++
	switch fn {
	case AggMin, AggMax:
		if s.best.IsNull() || improves(fn, v, s.best) {
			s.best = v
		}
	case AggSum, AggAvg:
		s.sum += v.AsFloat()
	}
}

// remove retracts one accumulated value (COUNT/SUM/AVG only; exemplar
// aggregates are recomputed from the table, never retracted).
func (s *aggState) remove(fn AggFunc, v val.Value) {
	s.count--
	if fn == AggSum || fn == AggAvg {
		s.sum -= v.AsFloat()
	}
}

func (s *aggState) result(fn AggFunc) val.Value {
	switch fn {
	case AggCount:
		return val.Int(s.count)
	case AggSum:
		return val.Float(s.sum)
	case AggAvg:
		if s.count == 0 {
			return val.Null
		}
		return val.Float(s.sum / float64(s.count))
	default:
		return s.best
	}
}

// AggTable maintains a continuous aggregate over a stored table (§3.4:
// "aggregation elements that maintain an up-to-date aggregate ... on a
// table and emit it whenever it changes"), pushing group results whose
// value changed. This is how rules like N3 (bestSuccDist min<D> over
// succDist) run.
//
// Maintenance is incremental, not a full table scan per delta:
// COUNT/SUM/AVG fold every insert, delete, and primary-key displacement
// into per-group accumulators in O(1); MIN/MAX are exemplar aggregates
// whose result is recomputed from only the affected group's rows,
// reached through a secondary index on the grouping fields (an
// accumulator cannot retract an extremum, and a group is typically a
// handful of rows — Chord's succDist holds a successor list). Every
// listener reaction is deferred to the table mutation's final
// notification, so one Insert — even one that displaces a row or
// evicts another — emits at most one change per affected group. The
// win over scan-per-delta shows in BenchmarkAggTable*.
//
// Unlike the strand elements, an AggTable is one node's: it hooks that
// node's table and keeps its groups, and pushes its results downstream
// on behalf of the node's Ctx.
type AggTable struct {
	Base
	ctx      *Ctx
	tbl      *table.Table
	groupIx  *table.Index // exemplar refresh handle; nil for accumulators
	fn       AggFunc
	groupPos []int
	aggPos   int
	outName  string
	sums     map[string]*aggState // COUNT/SUM/AVG accumulators, by group key
	last     map[string]val.Value
	// displaced stashes the row a primary-key replacement evicted, and
	// evicted the group keys whose delete notifications fired inside an
	// in-progress Insert (FIFO eviction); the insert's own OnInsert
	// consumes both, folding the whole mutation into one refresh pass.
	displaced *tuple.Tuple
	evicted   []string
}

// NewAggTable builds the element for the node c over its table tbl and
// hooks the table's listeners. The accumulators start empty: when
// wiring onto a table that already holds rows, connect the output and
// then call Recompute, which both seeds the state and emits the current
// groups (the engine's install path does exactly this).
func NewAggTable(c *Ctx, tbl *table.Table, fn AggFunc, groupPos []int, aggPos int,
	outName string) *AggTable {
	a := &AggTable{
		ctx:      c,
		tbl:      tbl,
		fn:       fn,
		groupPos: append([]int(nil), groupPos...),
		aggPos:   aggPos,
		outName:  outName,
		sums:     make(map[string]*aggState),
		last:     make(map[string]val.Value),
	}
	if a.exemplar() {
		a.groupIx = tbl.EnsureIndex(a.groupPos) // exemplar refreshes read one group, not the table
	}
	tbl.OnReplace(func(old *tuple.Tuple) { a.displaced = old })
	tbl.OnInsert(func(t *tuple.Tuple) {
		keys := a.evicted
		a.evicted = nil
		if a.displaced != nil {
			keys = append(keys, a.retract(a.displaced))
			a.displaced = nil
		}
		keys = append(keys, a.fold(t))
		a.refreshEach(keys)
	})
	tbl.OnDelete(func(t *tuple.Tuple) {
		key := a.retract(t)
		if a.tbl.Inserting() != nil {
			// Eviction inside an Insert: the table already holds the new
			// row but its notification has not fired; refreshing now
			// would read (exemplar) or emit (accumulator) a half-applied
			// mutation. The paired OnInsert refreshes this group.
			a.evicted = append(a.evicted, key)
			return
		}
		a.refresh(key)
	})
	return a
}

// exemplar reports whether the aggregate picks a row (MIN/MAX) rather
// than accumulating arithmetic.
func (a *AggTable) exemplar() bool { return a.fn == AggMin || a.fn == AggMax }

// fold adds one row's contribution and returns its group key. Exemplar
// aggregates keep no accumulator — their refresh reads the group.
func (a *AggTable) fold(t *tuple.Tuple) string {
	key := t.Key(a.groupPos)
	if a.exemplar() {
		return key
	}
	st, ok := a.sums[key]
	if !ok {
		group := make([]val.Value, len(a.groupPos))
		for i, p := range a.groupPos {
			group[i] = t.Field(p)
		}
		st = &aggState{group: group}
		a.sums[key] = st
	}
	st.add(a.fn, t.Field(a.aggPos))
	return key
}

// retract removes one row's contribution and returns its group key.
func (a *AggTable) retract(t *tuple.Tuple) string {
	key := t.Key(a.groupPos)
	if a.exemplar() {
		return key
	}
	st, ok := a.sums[key]
	if !ok {
		return key // never folded in (listener attached late); nothing to undo
	}
	if st.count <= 1 {
		delete(a.sums, key)
		return key
	}
	st.remove(a.fn, t.Field(a.aggPos))
	return key
}

// refreshEach refreshes every distinct key once, preserving order.
func (a *AggTable) refreshEach(keys []string) {
	done := make(map[string]bool, len(keys))
	for _, key := range keys {
		if !done[key] {
			done[key] = true
			a.refresh(key)
		}
	}
}

// refresh computes a group's current result, compares it with the last
// one emitted, and pushes downstream on change. Vanished groups are
// forgotten silently — soft state decays rather than retracts, per the
// paper's model.
func (a *AggTable) refresh(key string) {
	var group []val.Value
	var v val.Value
	if a.exemplar() {
		// Read the group's rows through PeekEach: refresh runs inside
		// table notifications, where re-entering the expiry pass would
		// recurse into this listener.
		var best *tuple.Tuple
		a.groupIx.PeekEach([]byte(key), func(t *tuple.Tuple) bool {
			if best == nil || improves(a.fn, t.Field(a.aggPos), best.Field(a.aggPos)) {
				best = t
			}
			return true
		})
		if best == nil {
			delete(a.last, key)
			return
		}
		v = best.Field(a.aggPos)
		group = make([]val.Value, len(a.groupPos))
		for i, p := range a.groupPos {
			group[i] = best.Field(p)
		}
	} else {
		st, ok := a.sums[key]
		if !ok {
			delete(a.last, key)
			return
		}
		v = st.result(a.fn)
		group = st.group
	}
	if prev, ok := a.last[key]; ok && prev.Equal(v) {
		return
	}
	a.last[key] = v
	fields := make([]val.Value, 0, len(group)+1)
	fields = append(fields, group...)
	fields = append(fields, v)
	a.PushOut(a.ctx, tuple.New(a.outName, fields...))
}

// Recompute rebuilds the accumulators from a full scan and emits every
// group whose result differs from the last emission. The engine calls
// it once after wiring an aggregate onto a table that already holds
// rows (rules installed at runtime); steady-state maintenance is
// incremental and never comes through here.
func (a *AggTable) Recompute() {
	a.sums = make(map[string]*aggState)
	a.displaced, a.evicted = nil, nil
	seen := make(map[string]bool)
	var order []string
	for _, t := range a.tbl.Scan() {
		key := a.fold(t)
		if !seen[key] {
			seen[key] = true
			order = append(order, key)
		}
	}
	for key := range a.last {
		if !seen[key] {
			delete(a.last, key)
		}
	}
	a.refreshEach(order)
}

// Range is the range(I, Lo, Hi) generator: for each input tuple it
// evaluates the bounds and emits one copy per integer in [lo, hi] with
// the iteration value appended — how the naive finger-fixing rule F1
// walks all finger indices.
type Range struct {
	Base
	lo, hi *pel.Program
}

// NewRange builds a range generator.
func NewRange(lo, hi *pel.Program) *Range { return &Range{lo: lo, hi: hi} }

// Push expands t over the iteration range. One working tuple carries
// every copy: downstream is done with it when its Push returns, so
// only the iteration field changes between emissions.
func (r *Range) Push(c *Ctx, t *tuple.Tuple) {
	loV, err := c.vm.Eval(r.lo, t, c.Env)
	if err != nil {
		return
	}
	hiV, err := c.vm.Eval(r.hi, t, c.Env)
	if err != nil {
		return
	}
	lo, hi := loV.AsInt(), hiV.AsInt()
	if lo > hi {
		return
	}
	out, fields, mk := c.Scratch.take(t.Name(), t.Arity()+1)
	defer c.Scratch.release(mk)
	copy(fields, t.Fields())
	for v := lo; v <= hi; v++ {
		fields[len(fields)-1] = val.Int(v)
		r.PushOut(c, out)
	}
}
