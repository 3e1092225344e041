package overlays

import (
	"fmt"
	"testing"

	"p2/internal/engine"
	"p2/internal/eventloop"
	"p2/internal/simnet"
	"p2/internal/tuple"
	"p2/internal/val"
)

// TestMulticastOverNaradaMesh is the multi-overlay sharing test: the
// Narada mesh spec and the multicast spec compile into ONE dataflow,
// the multicast rules reading the neighbor table Narada maintains
// (§1: "can compile multiple overlay specifications into a single
// dataflow"). A message injected at one node must reach every mesh
// member exactly once.
func TestMulticastOverNaradaMesh(t *testing.T) {
	const n = 10
	plan := mergedPlan(t, NaradaSource, MeshMulticastSource)
	loop := eventloop.NewSim()
	net := simnet.New(loop, simnet.DefaultConfig())

	var nodes []*engine.Node
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("mc%02d:x", i)
	}
	delivered := make(map[string]int)
	for i := 0; i < n; i++ {
		node := engine.NewNode(addrs[i], loop, net, plan, engine.Options{Seed: int64(i + 1)})
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		// Sparse bootstrap: a ring of neighbor hints; Narada's gossip
		// densifies membership from there.
		node.AddFact("env", val.Str(addrs[i]), val.Str("neighbor"), val.Str(addrs[(i+1)%n]))
		addr := addrs[i]
		node.Watch("deliver", func(ev engine.WatchEvent) {
			if ev.Dir == engine.DirDerived {
				delivered[addr]++
			}
		})
		nodes = append(nodes, node)
	}

	// Let the mesh form, then publish one message at node 0.
	loop.RunFor(20)
	nodes[0].InjectTuple(tuple.New("message",
		val.Str(addrs[0]), val.Str("m1"), val.Str("hello mesh"), val.Str("-")))
	loop.RunFor(30)

	for _, a := range addrs {
		if delivered[a] != 1 {
			t.Fatalf("node %s delivered %d times, want exactly 1 (map: %v)",
				a, delivered[a], delivered)
		}
	}

	// A second, distinct message also floods; the first stays deduped.
	nodes[3].InjectTuple(tuple.New("message",
		val.Str(addrs[3]), val.Str("m2"), val.Str("again"), val.Str("-")))
	loop.RunFor(30)
	for _, a := range addrs {
		if delivered[a] != 2 {
			t.Fatalf("node %s delivered %d total, want 2", a, delivered[a])
		}
	}
}

// TestMulticastSpecRequiresMesh documents that the multicast layer is
// deliberately incomplete alone: without a mesh providing neighbor, it
// must not compile.
func TestMulticastSpecRequiresMesh(t *testing.T) {
	if _, err := compileSrc(MeshMulticastSource); err == nil {
		t.Fatal("multicast spec alone should fail to compile (no neighbor table)")
	}
}
