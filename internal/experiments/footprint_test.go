package experiments

import (
	"fmt"
	"runtime"
	"testing"

	"p2"
	"p2/internal/overlays"
	"p2/internal/planner"
	"p2/internal/simnet"
)

// fixedCostPerNode spawns n nodes running plan on a one-shard simulated
// WAN, runs a virtual millisecond so every node has started, and
// returns the live heap the nodes added, per node. Nodes get no facts,
// so what is measured is what a node costs before it has learned a row:
// its tables and indexes, its strands' state, its timers and transport.
// The deployment is built before the first sample, so its own machinery
// is not counted.
func fixedCostPerNode(t *testing.T, plan *planner.Plan, n int) float64 {
	t.Helper()
	wan := simnet.TransitStubWAN(4, 4, 17)
	d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(1), p2.WithShards(1), p2.WithTopology(wan))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	handles := make([]*p2.Handle, 0, n)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		h, err := d.Spawn(fmt.Sprintf("f%d:p2", i), plan)
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	d.Run(0.001)
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(handles)
	return float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n) / 1024
}

// TestFixedCostPerNode pins what a freshly spawned node holds. Every
// node of a plan pushes through the element graph the plan built once,
// so a node pays only for its own state. When each node built its own
// copy of every rule's elements, a node held 58.2 kB (Chord) and
// 79.4 kB (Chord+KV); a build that skipped strands, table aggregates
// and indexes altogether read 20.9 kB and 24.1 kB. A fresh node reads
// 23.6 kB and 29.0 kB on 64-bit, and the bounds leave about a fifth of
// headroom over that.
func TestFixedCostPerNode(t *testing.T) {
	for _, c := range []struct {
		name  string
		plan  *planner.Plan
		bound float64 // kB per node
	}{
		{"chord", overlays.ChordPlan(nil), 28},
		{"chord+kv", overlays.ChordKVPlan(nil), 35},
	} {
		kb := fixedCostPerNode(t, c.plan, 256)
		t.Logf("%s: %.1f kB per node", c.name, kb)
		if kb > c.bound {
			t.Errorf("%s: a fresh node holds %.1f kB, want <= %.0f kB", c.name, kb, c.bound)
		}
	}
}
