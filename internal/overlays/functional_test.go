package overlays

// Functional tests: each shipped overlay actually *runs* and exhibits
// its defining behaviour on the simulated network. The Chord overlay
// has its own deeper suite in internal/experiments.

import (
	"fmt"
	"math/rand"
	"testing"

	"p2/internal/engine"
	"p2/internal/eventloop"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/simnet"
	"p2/internal/val"
)

type cluster struct {
	loop  *eventloop.Sim
	net   *simnet.Net
	nodes []*engine.Node
}

func spawn(t *testing.T, src string, n int, prefix string) *cluster {
	t.Helper()
	plan, err := planner.Compile(overlog.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	loop := eventloop.NewSim()
	net := simnet.New(loop, simnet.DefaultConfig())
	c := &cluster{loop: loop, net: net}
	for i := 0; i < n; i++ {
		node := engine.NewNode(fmt.Sprintf("%s%02d:x", prefix, i), loop, net, plan,
			engine.Options{Seed: int64(i + 1)})
		if err := node.Start(); err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, node)
	}
	return c
}

func TestGossipInfectsEveryone(t *testing.T) {
	const n = 20
	c := spawn(t, GossipSource, n, "g")
	rng := rand.New(rand.NewSource(5))
	addrs := make([]string, n)
	for i, node := range c.nodes {
		addrs[i] = node.Addr()
	}
	for _, node := range c.nodes {
		for _, p := range rng.Perm(n)[:4] {
			if addrs[p] != node.Addr() {
				node.AddFact("peer", val.Str(node.Addr()), val.Str(addrs[p]))
			}
		}
	}
	c.nodes[0].AddFact("rumor", val.Str(addrs[0]), val.Str("r1"), val.Str("data"))

	infected := func() int {
		k := 0
		for _, node := range c.nodes {
			if node.Table("rumor").Len() > 0 {
				k++
			}
		}
		return k
	}
	c.loop.RunFor(10)
	mid := infected()
	if mid < 2 {
		t.Fatalf("infection has not begun: %d", mid)
	}
	c.loop.RunFor(80)
	if got := infected(); got != n {
		t.Fatalf("infected = %d/%d after 90 s", got, n)
	}
}

func TestLinkStateConvergesToShortestPaths(t *testing.T) {
	// A line with a shortcut:
	//   a -1- b -1- c -1- d      and  a -10- d
	// Best a→d must be via b (cost 3), not the direct cost-10 link.
	c := spawn(t, LinkStateSource, 4, "r")
	a, b, cc, d := c.nodes[0], c.nodes[1], c.nodes[2], c.nodes[3]
	link := func(x, y *engine.Node, cost int64) {
		x.AddFact("link", val.Str(x.Addr()), val.Str(y.Addr()), val.Int(cost))
		y.AddFact("link", val.Str(y.Addr()), val.Str(x.Addr()), val.Int(cost))
	}
	link(a, b, 1)
	link(b, cc, 1)
	link(cc, d, 1)
	link(a, d, 10)

	c.loop.RunFor(60)

	bp := a.Table("bestPath")
	var toD []string
	for _, row := range bp.Scan() {
		if row.Field(1).AsStr() == d.Addr() {
			toD = append(toD, fmt.Sprintf("next=%s cost=%d",
				row.Field(2).AsStr(), row.Field(3).AsInt()))
		}
	}
	if len(toD) != 1 {
		t.Fatalf("paths a->d = %v", toD)
	}
	want := fmt.Sprintf("next=%s cost=3", b.Addr())
	if toD[0] != want {
		t.Fatalf("a->d = %s, want %s", toD[0], want)
	}
	// Every node must have a best path to every other node.
	for _, x := range c.nodes {
		for _, y := range c.nodes {
			if x == y {
				continue
			}
			found := false
			for _, row := range x.Table("bestPath").Scan() {
				if row.Field(1).AsStr() == y.Addr() {
					found = true
				}
			}
			if !found {
				t.Fatalf("%s has no path to %s", x.Addr(), y.Addr())
			}
		}
	}
}

func TestLinkStateAdaptsToLinkRemoval(t *testing.T) {
	// Kill the middle of the cheap path; routing must fall back to the
	// expensive direct link once the soft state expires.
	c := spawn(t, LinkStateSource, 3, "r")
	a, b, d := c.nodes[0], c.nodes[1], c.nodes[2]
	link := func(x, y *engine.Node, cost int64) {
		x.AddFact("link", val.Str(x.Addr()), val.Str(y.Addr()), val.Int(cost))
		y.AddFact("link", val.Str(y.Addr()), val.Str(x.Addr()), val.Int(cost))
	}
	link(a, b, 1)
	link(b, d, 1)
	link(a, d, 10)
	c.loop.RunFor(60)

	cost := func() int64 {
		for _, row := range a.Table("bestPath").Scan() {
			if row.Field(1).AsStr() == d.Addr() {
				return row.Field(3).AsInt()
			}
		}
		return -1
	}
	if got := cost(); got != 2 {
		t.Fatalf("initial a->d cost = %d, want 2", got)
	}
	b.Stop() // relay dies
	c.loop.RunFor(90)
	if got := cost(); got != 10 {
		t.Fatalf("post-failure a->d cost = %d, want 10 (direct)", got)
	}
}

func TestNaradaMembershipAndFailure(t *testing.T) {
	const n = 6
	c := spawn(t, NaradaSource, n, "m")
	for i, node := range c.nodes {
		next := c.nodes[(i+1)%n]
		node.AddFact("env", val.Str(node.Addr()), val.Str("neighbor"), val.Str(next.Addr()))
	}
	c.loop.RunFor(30)
	for _, node := range c.nodes {
		if got := node.Table("member").Len(); got != n {
			t.Fatalf("%s knows %d members, want %d", node.Addr(), got, n)
		}
	}
	// Kill one node; survivors must mark it dead within the liveness
	// horizon (20 s silence + probe).
	victim := c.nodes[2]
	victim.Stop()
	c.loop.RunFor(40)
	for _, node := range c.nodes {
		if node == victim {
			continue
		}
		var live bool
		for _, row := range node.Table("member").Scan() {
			if row.Field(1).AsStr() == victim.Addr() {
				live = row.Field(4).AsBool()
			}
		}
		if live {
			t.Fatalf("%s still believes %s is alive", node.Addr(), victim.Addr())
		}
	}
}

func TestNaradaSequenceAdvances(t *testing.T) {
	c := spawn(t, NaradaSource, 2, "m")
	c.nodes[0].AddFact("env", val.Str(c.nodes[0].Addr()), val.Str("neighbor"), val.Str(c.nodes[1].Addr()))
	c.loop.RunFor(31)
	rows := c.nodes[0].Table("sequence").Scan()
	if len(rows) != 1 {
		t.Fatalf("sequence rows = %v", rows)
	}
	// Refresh every 3 s: roughly 10 increments in 31 s (first firing
	// jittered within one period).
	if got := rows[0].Field(1).AsInt(); got < 8 || got > 11 {
		t.Fatalf("sequence = %d after 31 s", got)
	}
}

func TestPingPongMeasuresRTT(t *testing.T) {
	c := spawn(t, PingPongSource, 2, "q")
	a, b := c.nodes[0], c.nodes[1]
	a.AddFact("pingPeer", val.Str(a.Addr()), val.Str(b.Addr()))
	c.loop.RunFor(5)
	rows := a.Table("rtt").Scan()
	if len(rows) != 1 {
		t.Fatalf("rtt rows = %v", rows)
	}
	rtt := rows[0].Field(2).AsFloat()
	lat := c.net.Latency(a.Addr(), b.Addr())
	if rtt < 2*lat || rtt > 2*lat+0.1 {
		t.Fatalf("rtt = %v, want ~%v", rtt, 2*lat)
	}
}
