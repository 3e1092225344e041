package p2_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"testing"

	"p2"
)

// healthLog records every sysHealth delta the nodes it watches make:
// the node, the time, and the row's type, status, since and reason.
type healthLog struct {
	mu    sync.Mutex
	lines []healthLine
}

type healthLine struct {
	time float64
	node string
	typ  int // position in the condition catalogue
	text string
}

// watch subscribes the log to h's sysHealth deltas.
func (l *healthLog) watch(t *testing.T, h *p2.Handle) {
	t.Helper()
	err := h.Watch(p2.SysHealth, func(ev p2.WatchEvent) {
		if ev.Dir != p2.DirInserted {
			return
		}
		row := ev.Tuple
		typ := -1
		for i, ct := range p2.ConditionTypes() {
			if string(ct) == row.Field(1).AsStr() {
				typ = i
			}
		}
		text := fmt.Sprintf("%s %s %s %s since=%s %q",
			strconv.FormatFloat(ev.Time, 'g', -1, 64), ev.Node,
			row.Field(1).AsStr(), row.Field(2).AsStr(),
			strconv.FormatFloat(row.Field(4).AsFloat(), 'g', -1, 64), row.Field(3).AsStr())
		l.mu.Lock()
		l.lines = append(l.lines, healthLine{ev.Time, ev.Node, typ, text})
		l.mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
}

// write appends the log to b, one delta a line, ordered by time, then
// node, then catalogue position; deltas equal on all three keep the
// order they were made in.
func (l *healthLog) write(b *bytes.Buffer) {
	sort.SliceStable(l.lines, func(i, j int) bool {
		x, y := l.lines[i], l.lines[j]
		if x.time != y.time {
			return x.time < y.time
		}
		if x.node != y.node {
			return x.node < y.node
		}
		return x.typ < y.typ
	})
	for _, ln := range l.lines {
		fmt.Fprintln(b, ln.text)
	}
}

// TestSysHealthDeltasMatchGolden pins every sysHealth delta — node,
// time, type, status, reason and since — of two simulated runs: the
// Partitioned lifecycle of TestPartitionConditionTransitionsSimulated
// at one shard, and a churned 8-node Chord+KV ring refreshing every
// second. A change to how conditions are judged shows up here line by
// line. After an intended change, rewrite the golden with
//
//	go test . -run TestSysHealthDeltasMatchGolden -update
func TestSysHealthDeltasMatchGolden(t *testing.T) {
	var b bytes.Buffer

	var part healthLog
	simulatedTransitions(t, 1, func(h *p2.Handle) { part.watch(t, h) })
	fmt.Fprintln(&b, "== partition lifecycle")
	part.write(&b)

	var ring healthLog
	churnedKVRing(t, func(h *p2.Handle) { ring.watch(t, h) })
	fmt.Fprintln(&b, "== churned chord+kv ring")
	ring.write(&b)

	path := filepath.Join("testdata", "syshealth.golden")
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
		t.Errorf("sysHealth deltas differ from %s (run with -update after an intended change):\n%s", path, b.String())
	}
}

// churnedKVRing runs a simulated 8-node Chord+KV ring that refreshes
// its sys* tables every second: joins, a few writes, 25 s of churn and
// a quiet tail. spawned sees every node, replacements included.
func churnedKVRing(t *testing.T, spawned func(*p2.Handle)) {
	t.Helper()
	plan, err := p2.CompileMulti(nil, p2.ChordSource, p2.KVSource)
	if err != nil {
		t.Fatal(err)
	}
	d, err := p2.NewDeployment(p2.Simulated, p2.WithSeed(7),
		p2.WithNodeDefaults(p2.NodeOptions{IntrospectInterval: 1}))
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const landmark = "kv00:p2"
	next := 0
	spawn := func() *p2.Handle {
		addr := fmt.Sprintf("kv%02d:p2", next)
		next++
		h, err := d.Spawn(addr, plan)
		if err != nil {
			t.Fatalf("spawn %s: %v", addr, err)
		}
		lm := "-"
		if addr != landmark {
			lm = landmark
		}
		h.AddFact("landmark", p2.Str(addr), p2.Str(lm))
		h.AddFact("join", p2.Str(addr), p2.Str(addr+"!boot"))
		spawned(h)
		return h
	}
	var nodes []*p2.Handle
	for i := 0; i < 8; i++ {
		nodes = append(nodes, spawn())
		d.Run(0.5)
	}
	d.Run(20)
	for i, h := range nodes {
		if _, err := h.Put(fmt.Sprintf("key/%d", i), fmt.Sprintf("v/%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	d.EnableChurn(15, func(*p2.Deployment, string) *p2.Handle { return spawn() }, landmark)
	d.Run(25)
	d.DisableChurn()
	d.Run(15)
}
