package experiments

import (
	"runtime"

	"p2/internal/val"
)

// Footprint reports the memory cost of running Chord nodes — the
// paper's "about 800 kB of working set" claim (§1), and the gauge the
// 100k scale-out campaign is driven by: per-node bytes, not cores, are
// what bound deployment size.
type Footprint struct {
	Nodes          int
	BytesPerNode   uint64 // (run delta - control delta) / nodes
	TotalHeapDelta uint64 // heap growth of the measured run
	ControlDelta   uint64 // heap growth of the 0-node control run
	InternEntries  int    // global symbol interner occupancy after the run
	InternBytes    int64  // bytes of canonical backing storage interned
}

// footprintSpacing is the join stagger of footprint rings: footprint
// measures steady state, not convergence quality, so joins pack
// tighter than the ChordOpts default to keep big-N runs
// affordable.
const footprintSpacing = 0.05

// measureRun builds an n-node ring on sc's shards and topology, runs it
// for the given virtual duration, and returns the heap growth. Two GC cycles bracket each
// sample: the first turns garbage into free spans, the second lets
// finalizer-driven frees settle — a single cycle leaves recently
// dropped shard/loop state inflating the delta.
func measureRun(sc Scale, n int, duration float64) uint64 {
	runtime.GC()
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	h := NewChord(ChordOpts{N: n, Seed: 1, JoinSpacing: footprintSpacing, Shards: sc.Shards, Net: sc.Net})
	h.D.Run(duration)

	runtime.GC()
	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	h.D.Close()

	if after.HeapAlloc <= before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// MeasureFootprint runs n full Chord nodes on sc's shards and topology
// for warm seconds of virtual time past the staggered build and
// measures amortized heap bytes per node. The driver machinery (deployment, shard loops,
// schedule state) is subtracted out via a 0-node control run over the
// same virtual duration, so BytesPerNode attributes only what nodes
// actually cost — without the control the fixed overhead inflates
// small-n measurements by tens of kB/node.
func MeasureFootprint(sc Scale, n int, warm float64) Footprint {
	duration := float64(n)*footprintSpacing + warm
	control := measureRun(sc, 0, duration)
	delta := measureRun(sc, n, duration)

	net := uint64(0)
	if delta > control {
		net = delta - control
	}
	entries, bytes := val.InternStats()
	return Footprint{
		Nodes:          n,
		BytesPerNode:   net / uint64(n),
		TotalHeapDelta: delta,
		ControlDelta:   control,
		InternEntries:  entries,
		InternBytes:    bytes,
	}
}
