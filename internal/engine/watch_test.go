package engine

import (
	"bytes"
	"strings"
	"testing"

	"p2/internal/eventloop"
	"p2/internal/overlog"
	"p2/internal/planner"
	"p2/internal/simnet"
	"p2/internal/tuple"
	"p2/internal/val"
)

// TestWatchDirectiveTraces verifies the OverLog watch() statement: a
// watched relation's events stream to the trace writer.
func TestWatchDirectiveTraces(t *testing.T) {
	src := `
		watch(pong).
		P2 pong@X(X, Y, E) :- ping@Y(Y, X, E).
	`
	prog, err := overlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planner.Compile(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	loop := eventloop.NewSim()
	cfg := simnet.DefaultConfig()
	cfg.Domains = 1
	net := simnet.New(loop, cfg)

	var bufA, bufB bytes.Buffer
	a := NewNode("a", loop, net, plan, Options{Seed: 1, TraceWriter: &bufA})
	b := NewNode("b", loop, net, plan, Options{Seed: 2, TraceWriter: &bufB})
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}

	// Inject a ping at b addressed from a: b's P2 rule derives a pong
	// and sends it to a.
	b.InjectTuple(tuple.New("ping", val.Str("b"), val.Str("a"), val.Str("e1")))
	loop.Run(2)

	traceB := bufB.String()
	if !strings.Contains(traceB, "sent") || !strings.Contains(traceB, "pong(a, b, e1)") {
		t.Fatalf("b's trace missing send:\n%s", traceB)
	}
	traceA := bufA.String()
	if !strings.Contains(traceA, "received") {
		t.Fatalf("a's trace missing receive:\n%s", traceA)
	}
	// Unwatched relations must not appear.
	if strings.Contains(traceB, "ping(") {
		t.Fatalf("unwatched relation traced:\n%s", traceB)
	}
}

// TestWatchWithoutWriterIsSilent ensures watch() without a TraceWriter
// costs nothing and crashes nothing.
func TestWatchWithoutWriterIsSilent(t *testing.T) {
	src := `
		watch(tick).
		R1 tick@X(X, E) :- periodic@X(X, E, 1).
	`
	plan, err := planner.Compile(overlog.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	loop := eventloop.NewSim()
	net := simnet.New(loop, simnet.DefaultConfig())
	n := NewNode("a", loop, net, plan, Options{Seed: 1})
	if err := n.Start(); err != nil {
		t.Fatal(err)
	}
	loop.Run(5)
	if n.Stats().RulesFired == 0 {
		t.Fatal("rules did not fire")
	}
}

// TestWatchDirectiveOnSystemRelation: a watch() over a sys* relation,
// compiled in or installed, makes the node a sys* audience and streams
// each refresh's row once.
func TestWatchDirectiveOnSystemRelation(t *testing.T) {
	plan := planner.MustCompile(overlog.MustParse(`
		watch(sysNode).
		watch(pong).
		P2 pong@X(X, Y, E) :- ping@Y(Y, X, E).
	`), nil)
	loop := eventloop.NewSim()
	net := simnet.New(loop, simnet.DefaultConfig())
	var bufA, bufB bytes.Buffer
	a := NewNode("a", loop, net, plan, Options{Seed: 1, TraceWriter: &bufA})
	b := NewNode("b", loop, net, planner.MustCompile(overlog.MustParse(`
		P2 pong@X(X, Y, E) :- ping@Y(Y, X, E).
	`), nil), Options{Seed: 2, TraceWriter: &bufB})
	for _, n := range []*Node{a, b} {
		if err := n.Start(); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Install("watch(sysNode)."); err != nil {
		t.Fatal(err)
	}
	loop.Run(3.5) // refreshes at 1, 2 and 3 s
	for name, buf := range map[string]*bytes.Buffer{"compiled": &bufA, "installed": &bufB} {
		if got := strings.Count(buf.String(), " derived sysNode("); got != 3 {
			t.Errorf("%s: %d sysNode rows traced in 3.5 s, want 3:\n%s", name, got, buf.String())
		}
	}
}
