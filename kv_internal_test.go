package p2

import (
	"fmt"
	"testing"
)

// TestKVClientForgetsCompletedOps pins the client's memory to the ops
// still in flight: 1,000 PUTs and GETs on a simulated ring all complete
// and leave nothing in KVClient.pending.
func TestKVClientForgetsCompletedOps(t *testing.T) {
	plan, err := CompileMulti(nil, ChordSource, KVSource)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDeployment(Simulated, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var nodes []*Handle
	for i := 0; i < 8; i++ {
		addr := fmt.Sprintf("kv%02d:p2", i)
		h, err := d.Spawn(addr, plan)
		if err != nil {
			t.Fatal(err)
		}
		landmark := "-"
		if i > 0 {
			landmark = "kv00:p2"
		}
		h.AddFact("landmark", Str(addr), Str(landmark))
		h.AddFact("join", Str(addr), Str(addr+"!boot"))
		nodes = append(nodes, h)
		d.Run(1)
	}
	d.Run(120)

	c := d.KV()
	ops := make([]*KVOp, 0, 1000)
	for i := 0; i < cap(ops); i++ {
		h, key := nodes[i%len(nodes)], fmt.Sprintf("k%d", i/2%50)
		var op *KVOp
		if i%2 == 0 {
			op, err = c.Put(h, key, fmt.Sprintf("v%d", i))
		} else {
			op, err = c.Get(h, key)
		}
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops, op)
		if i%50 == 49 {
			d.Run(1)
		}
	}
	d.Run(30)
	for i, op := range ops {
		if !op.Done {
			t.Fatalf("op %d (%s %s) never completed", i, op.Kind, op.Key)
		}
	}
	c.mu.Lock()
	left := len(c.pending)
	c.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d completed ops still pending in the client", left)
	}
}
