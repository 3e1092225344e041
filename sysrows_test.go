package p2_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"p2"
)

var update = flag.Bool("update", false, "rewrite every golden under testdata/")

// TestSysRowsMatchGolden pins every sys* relation's rows, as one node
// of a simulated 8-node Chord+KV ring reports them at two instants,
// mid-write and after its successor died: a change to what the introspection refresh renders, caches or
// evaluates shows up here row by row. After an intended change of
// output, rewrite the golden with
//
//	go test . -run TestSysRowsMatchGolden -update
func TestSysRowsMatchGolden(t *testing.T) {
	plan, err := p2.CompileMulti(nil, p2.ChordSource, p2.KVSource)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(5),
		p2.WithNodeDefaults(p2.NodeOptions{IntrospectInterval: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	var nodes []*p2.Handle
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
		h.AddFact("landmark", p2.Str(addr), p2.Str(landmark))
		h.AddFact("join", p2.Str(addr), p2.Str(addr+"!boot"))
		nodes = append(nodes, h)
		d.Run(1)
	}
	d.Run(60)
	for i := 0; i < 6; i++ {
		if _, err := nodes[i].Put(fmt.Sprintf("key/%d", i), fmt.Sprintf("v/%d", i)); err != nil {
			t.Fatal(err)
		}
	}

	var b bytes.Buffer
	dump := func() {
		fmt.Fprintf(&b, "== t=%.1f\n", d.Now())
		for _, def := range p2.SystemTables() {
			for _, row := range nodes[3].ScanSorted(def.Name) {
				fmt.Fprintln(&b, row)
			}
		}
	}
	d.Run(2.5) // mid-write: pending ops, fresh transport counters
	dump()
	d.Kill(nodes[4].Addr())
	d.Run(30) // settled, with a dead neighbour: drops and conditions move
	dump()

	path := filepath.Join("testdata", "sysrows.golden")
	if *update {
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(b.Bytes(), want) {
		t.Errorf("sys* rows differ from %s (run with -update after an intended change):\n%s", path, b.String())
	}
}
