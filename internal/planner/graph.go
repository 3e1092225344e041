package planner

import (
	"slices"

	"p2/internal/dataflow"
)

// IndexSpec is one secondary index the plan's joins probe: a table and
// the key columns. Its position in Plan.Indexes is the ordinal a join
// names it by, and the ordinal of the node's index in its Ctx.
type IndexSpec struct {
	Table string
	Key   []int
}

// Indexes lists the secondary indexes the plan's strands probe, by
// ordinal. Treat as read-only.
func (p *Plan) Indexes() []IndexSpec { return p.indexes }

// Triggered returns the rules a tuple of relation name triggers, as
// positions in Rules, in rule order; nil when none listens (periodic
// rules are triggered by their timers alone). Treat as read-only.
func (p *Plan) Triggered(name string) []int { return p.triggers[name] }

// Scratch bounds what one run of any of the plan's strands holds of a
// node's scratch at once.
func (p *Plan) Scratch() dataflow.ScratchSize { return p.scratch }

// stage is a strand element with one downstream binding. buildChain
// collects stages, so wiring the chain is checked at compile time.
type stage interface {
	dataflow.Pusher
	Connect(next dataflow.Pusher)
}

// buildGraph builds the strands of Rules[rules:] and the heads of
// TableAggs[aggs:], registers the rules' triggers, and raises the
// scratch bound to cover them. The entries before those offsets are
// shared with the plan this one extends, and already built.
func (p *Plan) buildGraph(rules, aggs int) {
	if p.triggers == nil {
		p.triggers = make(map[string][]int)
	}
	for i := rules; i < len(p.Rules); i++ {
		r := p.Rules[i]
		p.buildChain(i, r)
		if r.Trigger.Kind != TrigPeriodic {
			p.triggers[r.Trigger.Name] = append(p.triggers[r.Trigger.Name], i)
		}
	}
	for j := aggs; j < len(p.TableAggs); j++ {
		ta := p.TableAggs[j]
		ta.Head = dataflow.NewProject(ta.HeadName, ta.HeadProgs, ^j)
	}
}

// buildChain builds the element chain of rule i, one element per op,
// ending in the Project that delivers its head as rule i.
func (p *Plan) buildChain(i int, r *Rule) {
	var elems []stage
	var flush dataflow.Flusher
	use := scratchUse{width: r.Trigger.Arity}

	for _, op := range r.Ops {
		switch o := op.(type) {
		case *OpJoin:
			ix := p.index(o.Table, o.TableKey)
			switch {
			case o.Neg:
				elems = append(elems, dataflow.NewNotJoin(ix, o.StreamKey))
			case o.Fold != nil:
				fj := dataflow.NewFoldJoin(ix, o.StreamKey, o.Fold.Fn, o.Fold.Input, o.Filters, o.Fold.Distinct, p.folds)
				p.folds++
				elems = append(elems, fj)
				flush = fj
			default:
				elems = append(elems, dataflow.NewJoin(ix, o.StreamKey, o.Filters, o.Assigns, "w"))
				use.take(p.Arities[o.Table] + len(o.Assigns))
			}
		case *OpSelect:
			elems = append(elems, dataflow.NewSelect(o.Prog))
		case *OpAssign:
			elems = append(elems, dataflow.NewMultiAssign(o.Progs))
			use.take(len(o.Progs))
		case *OpRange:
			elems = append(elems, dataflow.NewRange(o.Lo, o.Hi))
			use.take(1)
		}
	}
	if r.Agg != nil {
		agg := dataflow.NewAggStream(r.Agg.Fn, r.Agg.AggPos, p.streams)
		p.streams++
		elems = append(elems, agg)
		flush = agg
	}
	if _, fold := flush.(*dataflow.FoldJoin); fold || r.Agg != nil && r.Agg.Fn != dataflow.AggMin && r.Agg.Fn != dataflow.AggMax {
		use.flush(r.Trigger.Arity + 1)
	}

	// Wire the chain back to front: each element feeds the next, the
	// last the head.
	var next dataflow.Pusher = dataflow.NewProject(r.HeadName, r.HeadProgs, i)
	for k := len(elems) - 1; k >= 0; k-- {
		elems[k].Connect(next)
		next = elems[k]
	}
	r.Entry, r.Flush = next, flush
	p.scratch.Vals = max(p.scratch.Vals, use.most.Vals)
	p.scratch.Tuples = max(p.scratch.Tuples, use.most.Tuples)
}

// index returns the ordinal of the index over table's key columns,
// adding it to the plan's list on first use.
func (p *Plan) index(table string, key []int) int {
	for i, ix := range p.indexes {
		if ix.Table == table && slices.Equal(ix.Key, key) {
			return i
		}
	}
	p.indexes = append(p.indexes, IndexSpec{Table: table, Key: slices.Clone(key)})
	return len(p.indexes) - 1
}

// scratchUse tallies, from the plan's arities, the most of a node's
// scratch one run of a strand holds at once. Every element that takes a
// working tuple holds it until its downstream Push returns, so along the
// push chain the takes nest and their arities add up: a join's input ++
// match ++ fused assignments, an assignment run's input ++ one slot per
// step, a range's input ++ 1. The flush that ends an aggregate strand —
// a fold's, or a count/sum/avg AggStream's event ++ aggregate — runs
// after the chain has released everything, so it only has to fit alone.
// A tuple longer than its relation's planned arity raises the use by the
// excess; no compiled rule derives one.
type scratchUse struct {
	width int                  // arity of the working tuple so far
	most  dataflow.ScratchSize // what the strand holds at its deepest
}

// take records an element extending the working tuple by extra fields.
func (u *scratchUse) take(extra int) {
	u.width += extra
	u.most.Vals += u.width
	u.most.Tuples++
}

// flush records the end-of-event emission of an arity-wide tuple.
func (u *scratchUse) flush(arity int) {
	u.most.Vals = max(u.most.Vals, arity)
	u.most.Tuples = max(u.most.Tuples, 1)
}
