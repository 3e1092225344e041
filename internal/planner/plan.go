// Package planner compiles parsed OverLog programs into executable
// plans: table schemas, per-rule dataflow strand specifications, facts,
// and watches (§3.5), and the element graph of every rule, which all
// nodes running the plan share; the engine gives each node only its
// state.
//
// Compilation follows the paper's translation: each rule becomes a
// strand headed by its event (the body's unique stream predicate, a
// periodic timer, or a table delta), followed by equijoins against
// materialized tables via index lookups, PEL-compiled selections and
// assignments, an optional per-event aggregate, and a projection that
// constructs the head tuple. Rules whose body is a lone table with an
// aggregate head compile to continuous table aggregates instead.
//
// The strand's shape is decided here and only here: every rule is
// classified first, then each stream rule's body order is planned (see
// optimize.go) and the rule is lowered once, in that order, already
// fused — a join carries the selections and assignments after it, an
// assignment run is one op, and a foldable aggregate is the final
// join's Fold. The engine builds one element per op.
//
// One function builds every plan. Compile extends the empty plan, which
// holds only the system tables; Extend extends a plan a node already
// runs, sharing everything the base compiled and appending the new
// program's tables, rules, facts and watches after it. Planning reads
// only the declarations (CatalogStats), so a plan is a function of its
// source, and extending A with B plans what compiling A and B merged
// plans.
//
// The planner enforces the restrictions the paper states for its 2005
// implementation: rule bodies must be collocated (one location variable)
// and joins are stream×table only; multi-stream bodies are rejected with
// a pointer to the Appendix A rewrite style.
package planner

import (
	"fmt"
	"strings"

	"p2/internal/dataflow"
	"p2/internal/overlog"
	"p2/internal/pel"
	"p2/internal/table"
	"p2/internal/val"
)

// Plan is a compiled OverLog program, independent of any particular
// node: the engine instantiates it per node address.
type Plan struct {
	Source    *overlog.Program
	Tables    map[string]*TableSpec
	Rules     []*Rule
	TableAggs []*TableAggRule
	Facts     []*FactSpec
	Watches   []string
	Defines   map[string]val.Value
	// Arities records the inferred arity of every relation.
	Arities map[string]int

	// The element graph (graph.go) beyond the rules' own strands: built
	// when Compile or Extend finishes, shared by every node running the
	// plan, each pushing through it with its own dataflow.Ctx.
	indexes  []IndexSpec
	triggers map[string][]int // relation -> positions in Rules
	scratch  dataflow.ScratchSize
	folds    int // dataflow.Ctx fold slots handed out
	streams  int // dataflow.Ctx aggregate slots handed out
}

// TableSpec describes one materialized relation.
type TableSpec struct {
	Name    string
	TTL     float64 // seconds; table.Infinity when unbounded
	MaxSize int     // 0 = unbounded
	Keys    []int   // 0-based primary key positions
	// System marks a runtime-owned introspection relation (sysTable,
	// sysRule, ...). The engine instantiates these with a lifetime
	// derived from its refresh interval rather than this spec's TTL.
	System bool
}

// NewTable instantiates the spec as a concrete table on the given clock.
func (ts *TableSpec) NewTable(clock interface{ Now() float64 }) *table.Table {
	return table.New(ts.Name, ts.TTL, ts.MaxSize, ts.Keys, clock)
}

// TriggerKind classifies what fires a rule strand.
type TriggerKind int

// The trigger kinds.
const (
	TrigPeriodic TriggerKind = iota // built-in periodic() timer
	TrigStream                      // arrival of a named event tuple
	TrigDelta                       // insertion delta on a materialized table
)

func (k TriggerKind) String() string {
	switch k {
	case TrigPeriodic:
		return "periodic"
	case TrigStream:
		return "stream"
	case TrigDelta:
		return "delta"
	}
	return "?"
}

// Trigger describes a rule's event source.
type Trigger struct {
	Kind   TriggerKind
	Name   string // stream or table name ("periodic" for timers)
	Period float64
	Count  int64 // periodic firings; 0 = unlimited
	Arity  int
	// Extra holds the literal values of periodic() arguments beyond
	// (address, eventID); the engine emits them in the trigger tuple.
	Extra []val.Value
}

// Op is one step in a rule strand.
type Op interface{ op() }

// OpJoin probes a table with keys drawn from the working tuple. Neg
// makes it an antijoin (the "not" prefix).
//
// A positive join carries the steps that follow it in the rule, fused
// in by the lowering: Filters are the selections right after it, run
// over the virtual concatenation input++match before any tuple is
// built, and Assigns the assignment run after those, which fill the
// emitted tuple's trailing fields. With Fold set it is the rule's final
// join fused with the rule's aggregate instead, and has no Assigns.
type OpJoin struct {
	Table     string
	StreamKey []int
	TableKey  []int
	Neg       bool
	Filters   []*pel.Program
	Assigns   []*pel.Program
	Fold      *Fold
}

// OpSelect filters the working tuple through a boolean PEL program.
type OpSelect struct {
	Prog *pel.Program
}

// OpAssign appends one computed field per program to the working tuple:
// a run of consecutive assignments, built as one tuple.
type OpAssign struct {
	Progs []*pel.Program
}

// Fold is the per-event aggregate a rule's final join folds its matches
// into — set only by the planner, and only when the fusion is invisible
// in the derived tuples (see dataflow.FoldJoin). The join's Filters and
// Input evaluate over input++match; no working tuple is materialized per
// match. A folded rule emits through the fold's Flush, and its HeadProgs
// use the event++aggregate layout (as count/sum/avg always do).
//
// Distinct lists the table columns the filters and Input read, recorded
// only for min/max over pure programs: matches that agree on them fold
// identically, so the element evaluates one of each adjacent run.
type Fold struct {
	Fn       dataflow.AggFunc
	Input    *pel.Program // nil for count<*>
	Distinct []int
}

func (*OpJoin) op()   {}
func (*OpSelect) op() {}
func (*OpAssign) op() {}

// StreamAgg describes a per-event head aggregate.
type StreamAgg struct {
	Fn     dataflow.AggFunc
	AggPos int // working-tuple position of the aggregated field; -1 for count<*>
}

// Rule is a compiled strand specification.
type Rule struct {
	ID       string
	HeadName string
	Delete   bool
	Trigger  Trigger
	Ops      []Op
	Agg      *StreamAgg
	// HeadProgs construct the head tuple. Their input layout is the
	// final working tuple; for count/sum/avg aggregates it is the event
	// tuple with the aggregate appended (see dataflow.AggStream).
	HeadProgs []*pel.Program
	// Materialized reports whether the head relation is a table.
	Materialized bool

	// Order is the planner-chosen visit order of the non-event body
	// terms, as indices into their textual sequence. It is non-nil
	// exactly when the planner planned the rule (empty for a rule whose
	// body is its event alone); nil means the textual order of a frozen
	// rule.
	Order []int
	// CostEst is the cost-model estimate of the chosen order (abstract
	// tuple-touch units; comparable only within one rule).
	CostEst float64

	// Entry is the first element of the rule's strand and Flush the
	// aggregate that ends it (nil without one): the graph buildGraph
	// built, shared by every node and every plan extending this one.
	Entry dataflow.Pusher
	Flush dataflow.Flusher

	// orderStr is OrderString's text, rendered when the rule is compiled:
	// a compiled rule never changes, and every node running it may read
	// it at once.
	orderStr string
}

// OrderString returns the planner-chosen body order ("0,2,1"), or "-"
// for the textual order of a rule the planner leaves alone, followed by
// " distinct[cols]" when the rule ends in a fold that evaluates one
// match per run of equal columns (Fold.Distinct). This is the
// sysPlan Order column.
func (r *Rule) OrderString() string { return r.orderStr }

// renderOrder renders OrderString's text from the finished rule.
func (r *Rule) renderOrder() string {
	if len(r.Order) == 0 {
		return "-"
	}
	var sb strings.Builder
	for i, o := range r.Order {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", o)
	}
	if j, ok := r.Ops[len(r.Ops)-1].(*OpJoin); ok && j.Fold != nil && len(j.Fold.Distinct) > 0 {
		fmt.Fprintf(&sb, " distinct%v", j.Fold.Distinct)
	}
	return sb.String()
}

// TableAggRule is a continuous aggregate over a single table.
type TableAggRule struct {
	ID           string
	Table        string
	Fn           dataflow.AggFunc
	GroupPos     []int // positions in the stored tuple
	AggPos       int
	HeadName     string
	HeadProgs    []*pel.Program // input layout: group fields ++ aggregate
	Materialized bool
	// Head projects the aggregate's rows into head tuples: shared, like
	// a strand, while each node keeps the aggregate itself over its own
	// table.
	Head *dataflow.Project
}

// FactArg is either a constant or the local-address placeholder (fact
// variables denote "this node").
type FactArg struct {
	Local bool
	Value val.Value
}

// FactSpec is one startup tuple.
type FactSpec struct {
	Name string
	Args []FactArg
}

// Tuple materializes the fact for a node with the given address.
func (f *FactSpec) Tuple(addr string) []val.Value {
	fields := make([]val.Value, len(f.Args))
	for i, a := range f.Args {
		if a.Local {
			fields[i] = val.Str(addr)
		} else {
			fields[i] = a.Value
		}
	}
	return fields
}

// IsTable reports whether name is materialized in this plan.
func (p *Plan) IsTable(name string) bool {
	_, ok := p.Tables[name]
	return ok
}

// RuleCount returns the number of rules compiled (strands plus table
// aggregates) — the paper's complexity metric counts these identically.
func (p *Plan) RuleCount() int { return len(p.Rules) + len(p.TableAggs) }

// String renders a human-readable plan dump for the olgc inspector.
func (p *Plan) String() string {
	var sb strings.Builder
	for _, ts := range sortedTables(p.Tables) {
		fmt.Fprintf(&sb, "table %s ttl=%g max=%d keys=%v\n", ts.Name, ts.TTL, ts.MaxSize, ts.Keys)
	}
	for _, r := range p.Rules {
		fmt.Fprintf(&sb, "rule %s: on %s(%s", r.ID, r.Trigger.Kind, r.Trigger.Name)
		if r.Trigger.Kind == TrigPeriodic {
			fmt.Fprintf(&sb, " every %gs", r.Trigger.Period)
		}
		sb.WriteString(")")
		for _, op := range r.Ops {
			switch o := op.(type) {
			case *OpJoin:
				o.render(&sb)
			case *OpSelect:
				fmt.Fprintf(&sb, " -> select[%s]", o.Prog)
			case *OpAssign:
				renderAssigns(&sb, o.Progs)
			}
		}
		if r.Agg != nil {
			fmt.Fprintf(&sb, " -> agg %s@%d", r.Agg.Fn, r.Agg.AggPos)
		}
		verb := "emit"
		if r.Delete {
			verb = "delete"
		} else if r.Materialized {
			verb = "store"
		}
		fmt.Fprintf(&sb, " -> %s %s/%d", verb, r.HeadName, len(r.HeadProgs))
		if r.Order != nil {
			order, _, _ := strings.Cut(r.OrderString(), " ") // the fold above already shows its distinct columns
			fmt.Fprintf(&sb, "  [order=%s cost=%.4g]", order, r.CostEst)
		}
		sb.WriteString("\n")
	}
	for _, ta := range p.TableAggs {
		fmt.Fprintf(&sb, "tableagg %s: %s over %s groups=%v agg@%d -> %s\n",
			ta.ID, ta.Fn, ta.Table, ta.GroupPos, ta.AggPos, ta.HeadName)
	}
	for _, f := range p.Facts {
		fmt.Fprintf(&sb, "fact %s/%d\n", f.Name, len(f.Args))
	}
	return sb.String()
}

// render writes the join as the steps it fuses: the probe, then each
// filter as a select and each assignment; a folded join as one foldjoin.
func (o *OpJoin) render(sb *strings.Builder) {
	switch {
	case o.Neg:
		fmt.Fprintf(sb, " -> antijoin %s%v=%v", o.Table, o.StreamKey, o.TableKey)
	case o.Fold != nil:
		fmt.Fprintf(sb, " -> foldjoin %s%v=%v", o.Table, o.StreamKey, o.TableKey)
		for _, f := range o.Filters {
			fmt.Fprintf(sb, " where[%s]", f)
		}
		fmt.Fprintf(sb, " %s", o.Fold.Fn)
		if len(o.Fold.Distinct) > 0 {
			fmt.Fprintf(sb, " distinct%v", o.Fold.Distinct)
		}
	default:
		fmt.Fprintf(sb, " -> join %s%v=%v", o.Table, o.StreamKey, o.TableKey)
		for _, f := range o.Filters {
			fmt.Fprintf(sb, " -> select[%s]", f)
		}
		renderAssigns(sb, o.Assigns)
	}
}

func renderAssigns(sb *strings.Builder, progs []*pel.Program) {
	for _, p := range progs {
		fmt.Fprintf(sb, " -> assign[%s]", p)
	}
}

func sortedTables(m map[string]*TableSpec) []*TableSpec {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	out := make([]*TableSpec, len(names))
	for i, n := range names {
		out[i] = m[n]
	}
	return out
}
