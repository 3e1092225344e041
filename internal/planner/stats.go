package planner

// The statistics layer of the cost-based planner. CatalogStats supplies
// the per-join fan-out estimates the cost model consumes, derived purely
// from the plan's materialize() declarations; it is the only estimator,
// so a plan is a function of its source, never of the rows a node
// happens to hold. The planner queries it once per candidate join per
// rule, when it plans the rule.

// OptimizerConfig has no fields: planning is part of compiling and has
// no settings. The type and p2.WithOptimizer, which accepts it and does
// nothing, are kept only because the benchmark rig still names them;
// the next benchmark change drops those calls and both names go.
type OptimizerConfig struct{}

// Default sizing heuristics for relations whose live size is unknown.
const (
	catalogDefaultRows = 32  // unbounded user table, no better signal
	catalogSystemRows  = 16  // sys* tables: a handful of rows per node
	catalogMaxSizeCap  = 64  // declared size bounds are upper bounds, not estimates
	defaultKeySkew     = 4.0 // rows per distinct non-key value
)

// CatalogStats estimates sizes from the plan's declarations alone. Event
// streams have cardinality 1 (one tuple in flight), sys* tables are
// small, size bounds cap the estimate, and a key that covers the
// primary key is unique by construction.
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

// Fanout estimates key selectivity structurally: a key covering the
// primary key matches one row; a key that is only the location column
// matches every row (all of a node's rows share it); anything else
// matches defaultKeySkew rows, or every row of a smaller relation.
func (cs *CatalogStats) Fanout(table string, key []int) float64 {
	card := cs.Cardinality(table)
	ts, ok := cs.p.Tables[table]
	switch {
	case !ok || coversPK(key, ts.Keys):
		return 1
	case locationOnly(key):
		return card
	}
	return min(card, defaultKeySkew)
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
