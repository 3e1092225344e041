package p2

import (
	"fmt"
	"testing"
)

// TestStrandScratchStaysWithinPlanBound churns a 64-node Chord+KV ring
// under PUT/GET load and then holds every node's strand scratch to the
// bound engine.Node.ScratchCap states: the largest sum of working-tuple
// arities along any strand's chain, computed from the plan. The scratch
// grows only to what a take needs and never shrinks, so its capacity
// after the run is the high-water mark of everything the node ran.
func TestStrandScratchStaysWithinPlanBound(t *testing.T) {
	plan, err := CompileMulti(nil, ChordSource, KVSource)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(Simulated, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	const landmark = "s0:p2"
	next := 0
	var nodes []*Handle
	spawn := func() *Handle {
		addr := fmt.Sprintf("s%d:p2", next)
		next++
		h, err := d.Spawn(addr, plan)
		if err != nil {
			t.Fatalf("spawn %s: %v", addr, err)
		}
		lm := "-"
		if addr != landmark {
			lm = landmark
		}
		h.AddFact("landmark", Str(addr), Str(lm))
		h.AddFact("join", Str(addr), Str(addr+"!boot"))
		nodes = append(nodes, h)
		return h
	}
	for i := 0; i < 64; i++ {
		d.At(float64(i)*0.05, func() { spawn() })
	}
	d.Run(20)
	d.EnableChurn(15, func(*Deployment, string) *Handle { return spawn() }, landmark)
	c := d.KV()
	for i := 0; i < 400; i++ {
		h := nodes[i%len(nodes)]
		if !h.Running() {
			continue
		}
		key := fmt.Sprintf("k%d", i%40)
		if i%2 == 0 {
			_, err = c.Put(h, key, fmt.Sprintf("v%d", i))
		} else {
			_, err = c.Get(h, key)
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%20 == 19 {
			d.Run(1)
		}
	}
	d.DisableChurn()
	d.Run(5)

	checked := 0
	for _, h := range d.Nodes() {
		capacity, bound := h.node.ScratchCap()
		if bound.Vals == 0 || bound.Tuples == 0 {
			t.Fatalf("%s: plan bound %+v: the Chord+KV plan has strands that take scratch", h.Addr(), bound)
		}
		if capacity.Vals > bound.Vals || capacity.Tuples > bound.Tuples {
			t.Errorf("%s: scratch grew to %+v, past its plan bound %+v", h.Addr(), capacity, bound)
		}
		if capacity.Vals > 0 {
			checked++
		}
	}
	if checked < 32 {
		t.Fatalf("only %d of %d live nodes used their scratch: the run exercised nothing", checked, len(d.Nodes()))
	}
}
