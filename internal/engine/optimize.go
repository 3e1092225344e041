package engine

// This file is the engine half of the query optimizer: a rule installed
// into a running node is planned from statistics of the node's own
// tables, which by then hold real data. Rules the node started with are
// planned from the catalog alone (planner.OptimizeShared), once.

import "p2/internal/planner"

// liveStats implements planner.Stats from the node's live tables, with
// the catalog heuristics as fallback: a relation that holds no rows yet
// (or has no index on the asked-for key) costs what it did at start.
type liveStats struct {
	n   *Node
	cat planner.Stats
}

func (ls liveStats) Cardinality(name string) float64 {
	if tb := ls.n.tables[name]; tb != nil {
		if l := tb.Len(); l > 0 {
			return float64(l)
		}
	}
	return ls.cat.Cardinality(name)
}

func (ls liveStats) DistinctKeys(name string, key []int) float64 {
	if tb := ls.n.tables[name]; tb != nil {
		if d := tb.DistinctKeys(key); d > 0 {
			return float64(d)
		}
	}
	return ls.cat.DistinctKeys(name, key)
}

func (n *Node) liveStats() planner.Stats {
	return liveStats{n: n, cat: planner.NewCatalogStats(n.plan)}
}
