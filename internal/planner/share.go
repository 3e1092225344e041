package planner

// Plan sharing across nodes of one deployment. Planning is a pure
// function of (input plan, optimizer config): the catalog heuristics
// consult no per-node state, and a planned rule is never changed
// afterwards. So OptimizeShared plans once per (plan, config) pair
// process-wide, and every node runs the same rules — compiled ops, PEL
// programs, head constructors, source ASTs. Only the plan's Rules slice
// and maps are per node, so structural extension (Install) stays
// node-local.

import "sync"

type shareKey struct {
	plan *Plan
	cfg  OptimizerConfig
}

var (
	shareMu   sync.Mutex
	shareMemo map[shareKey]*Plan
)

// shareMemoCap bounds the template cache. Keys hold plan pointers, so
// an unbounded cache would pin every plan a long test run ever
// compiled; real processes use a handful of (plan, config) pairs, so
// wholesale reset on overflow never fires in practice.
const shareMemoCap = 64

// OptimizeShared returns Optimize(p, NewCatalogStats(p), cfg) computed
// at most once per (p, cfg) process-wide, as a view this caller may
// extend without affecting any other node sharing the same template.
func OptimizeShared(p *Plan, cfg OptimizerConfig) *Plan {
	key := shareKey{p, cfg}
	shareMu.Lock()
	tmpl, ok := shareMemo[key]
	shareMu.Unlock()
	if !ok {
		tmpl = Optimize(p, NewCatalogStats(p), cfg)
		// Prefill the OrderString memo while the template is still
		// private; the lazy fill is not safe once shards share it.
		for _, r := range tmpl.Rules {
			r.OrderString()
		}
		shareMu.Lock()
		if cached, again := shareMemo[key]; again {
			tmpl = cached // another goroutine won the race
		} else {
			if shareMemo == nil || len(shareMemo) >= shareMemoCap {
				shareMemo = make(map[shareKey]*Plan)
			}
			shareMemo[key] = tmpl
		}
		shareMu.Unlock()
	}
	return tmpl.clone()
}
