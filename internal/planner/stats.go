package planner

// The statistics layer of the cost-based optimizer. A Stats supplies
// per-relation cardinality and distinct-key estimates. CatalogStats
// derives them purely from the plan's materialize() declarations; every
// node plans its program with it at start, so all nodes of a deployment
// run one plan. Rules installed into a running node are planned from
// its live table counters (table.Len, index bucket counts) instead,
// with the catalog as fallback for relations still empty.

// Stats supplies the per-relation estimates the cost model consumes.
// The optimizer queries them once per candidate join per rule, when it
// plans the rule.
type Stats interface {
	// Cardinality estimates the number of live rows in the relation.
	Cardinality(table string) float64
	// DistinctKeys estimates the number of distinct values the given
	// key columns (0-based field positions) take in the relation.
	// Returns at least 1.
	DistinctKeys(table string, key []int) float64
}

// OptimizerConfig tunes the cost-based optimizer. The zero value
// enables every transformation — pass it to p2.WithOptimizer to turn
// the optimizer on. A rule is planned once, when its node starts or when
// it is installed, and its plan never changes afterwards.
type OptimizerConfig struct {
	// NoReorder disables greedy cost-based join reordering.
	NoReorder bool
	// NoPushdown disables selection pushdown past joins.
	NoPushdown bool
	// NoShare disables common-subexpression sharing of identical
	// (relation, key) probe prefixes across strands on one trigger.
	NoShare bool
	// NoFold disables aggregate-into-join fusion (dataflow.FoldJoin).
	NoFold bool
}

// Default sizing heuristics for relations whose live size is unknown.
const (
	catalogDefaultRows = 32  // unbounded user table, no better signal
	catalogSystemRows  = 16  // sys* tables: a handful of rows per node
	catalogMaxSizeCap  = 64  // declared size bounds are upper bounds, not estimates
	catalogRangeFanout = 8   // range(I, lo, hi) generator expansion guess
	defaultKeySkew     = 4.0 // rows per distinct non-key value
)

// CatalogStats estimates sizes from the plan's declarations alone — the
// cold-start fallback when tables are empty. Event streams have
// cardinality 1 (one tuple in flight), sys* tables are small, size
// bounds cap the estimate, and a key that covers the primary key is
// unique by construction.
type CatalogStats struct {
	p *Plan
}

// NewCatalogStats builds the declaration-derived estimator for p.
func NewCatalogStats(p *Plan) *CatalogStats { return &CatalogStats{p: p} }

// Cardinality estimates rows from the table declaration.
func (cs *CatalogStats) Cardinality(table string) float64 {
	ts, ok := cs.p.Tables[table]
	if !ok {
		return 1 // event stream: one tuple at a time
	}
	if ts.System {
		return catalogSystemRows
	}
	if ts.MaxSize > 0 {
		if ts.MaxSize < catalogMaxSizeCap {
			return float64(ts.MaxSize)
		}
		return catalogMaxSizeCap
	}
	return catalogDefaultRows
}

// DistinctKeys estimates key selectivity structurally: a key covering
// the primary key is unique per row; a key that is only the location
// column has a single value on any one node (every local row shares
// it); anything else is assumed mildly skewed.
func (cs *CatalogStats) DistinctKeys(table string, key []int) float64 {
	card := cs.Cardinality(table)
	ts, ok := cs.p.Tables[table]
	if !ok {
		return 1
	}
	if coversPK(key, ts.Keys) {
		return card
	}
	if locationOnly(key) {
		return 1
	}
	d := card / defaultKeySkew
	if d < 1 {
		return 1
	}
	return d
}

// coversPK reports whether key includes every primary-key position.
func coversPK(key, pk []int) bool {
	if len(pk) == 0 {
		return false
	}
	for _, p := range pk {
		found := false
		for _, k := range key {
			if k == p {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// locationOnly reports whether key touches nothing beyond field 0 (the
// location specifier, constant across a node's rows).
func locationOnly(key []int) bool {
	for _, k := range key {
		if k != 0 {
			return false
		}
	}
	return len(key) > 0
}
