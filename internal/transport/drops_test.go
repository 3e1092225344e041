package transport

// Failure-classifier coverage: every abandoned tuple must carry the
// right DropCause, the per-cause counters (global and per-destination)
// must agree with the upcalls, and — the Close regression — teardown
// drops must classify as SessionClosed, never RetryExhausted.

import (
	"testing"

	"p2/internal/tuple"
)

// causeRecorder captures every OnDrop upcall by cause.
type causeRecorder struct {
	byCause map[DropCause][]int64
}

func recordDrops(tr *Transport) *causeRecorder {
	cr := &causeRecorder{byCause: make(map[DropCause][]int64)}
	tr.OnDrop(func(to string, tu *tuple.Tuple, cause DropCause) {
		cr.byCause[cause] = append(cr.byCause[cause], tu.Field(1).AsInt())
	})
	return cr
}

func (cr *causeRecorder) count(c DropCause) int { return len(cr.byCause[c]) }

// TestRetryExhaustedThenPeerDead: toward a silent peer, the first
// deadStrikes budget exhaustions classify as RetryExhausted and every
// consecutive one after them as PeerDead.
func TestRetryExhaustedThenPeerDead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoBatch = true // one tuple per batch: each give-up is one strike
	cfg.MaxRetries = 1
	r := newRig(t, 0, cfg)
	cr := recordDrops(r.a)

	// 5 tuples toward a never-attached address. The collapsed window
	// serializes them: each exhausts its budget in turn.
	for i := int64(0); i < 5; i++ {
		r.a.Send("ghost", tp(i))
	}
	r.loop.Run(600)

	if got := cr.count(RetryExhausted); got != 2 {
		t.Fatalf("RetryExhausted drops = %d, want 2 (deadStrikes)", got)
	}
	if got := cr.count(PeerDead); got != 3 {
		t.Fatalf("PeerDead drops = %d, want 3", got)
	}
	st := r.a.Stats()
	if st.Dropped[RetryExhausted] != 2 || st.Dropped[PeerDead] != 3 {
		t.Fatalf("Stats.Dropped = %v", st.Dropped)
	}
	if dropTotal(st.Dropped) != st.Drops {
		t.Fatalf("classified total %d != retry-budget drops %d", dropTotal(st.Dropped), st.Drops)
	}
	// The per-destination vector mirrors the global one.
	for _, d := range r.a.PerDest() {
		if d.Addr == "ghost" {
			if d.Drops[RetryExhausted] != 2 || d.Drops[PeerDead] != 3 {
				t.Fatalf("per-dest drops = %v", d.Drops)
			}
		}
	}
}

// TestAckResetsDeadStrikes: a partition long enough for deadStrikes
// give-ups and one more, then a heal and an acknowledged exchange, then
// another partition — the second episode's first give-up must classify
// RetryExhausted again, not PeerDead.
func TestAckResetsDeadStrikes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoBatch = true
	cfg.MaxRetries = 1
	r := newRig(t, 0, cfg)
	cr := recordDrops(r.a)

	r.net.Partition("a", "b", true)
	for i := int64(0); i < deadStrikes+1; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.Run(600)
	first := cr.count(RetryExhausted)
	if first != 2 || cr.count(PeerDead) != 1 {
		t.Fatalf("episode 1: RetryExhausted=%d PeerDead=%d, want 2/1",
			first, cr.count(PeerDead))
	}

	r.net.Partition("a", "b", false)
	r.a.Send("b", tp(deadStrikes+1)) // delivered and acked: strikes reset
	r.loop.RunFor(30)
	if len(r.got) == 0 {
		t.Fatal("healed link delivered nothing")
	}

	r.net.Partition("a", "b", true)
	r.a.Send("b", tp(deadStrikes+2))
	r.loop.RunFor(300)
	if got := cr.count(RetryExhausted); got != first+1 || cr.count(PeerDead) != 1 {
		t.Fatalf("episode 2 first give-up classified as %v, want a fresh RetryExhausted (count %d, was %d)",
			cr.byCause, got, first)
	}
}

// TestCloseDropsAreSessionClosed is the teardown-classification
// regression: with both backlog and in-flight tuples outstanding,
// Close must report every one of them as SessionClosed — never
// RetryExhausted or PeerDead, which would read as network failure.
func TestCloseDropsAreSessionClosed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoBatch = true // window 4 in flight, the rest backlogged
	r := newRig(t, 0, cfg)
	cr := recordDrops(r.a)

	for i := int64(0); i < 10; i++ {
		r.a.Send("b", tp(i))
	}
	r.loop.RunFor(0) // flush: in flight + backlog, nothing acked
	inflight, backlog := inFlight(r.a, "b"), dest(r.a, "b").Backlog
	if inflight == 0 || backlog == 0 {
		t.Fatalf("test needs both flight (%d) and backlog (%d)", inflight, backlog)
	}

	r.a.Close()
	if got := cr.count(SessionClosed); got != inflight+backlog {
		t.Fatalf("SessionClosed drops = %d, want %d", got, inflight+backlog)
	}
	for _, c := range []DropCause{RetryExhausted, PeerDead, BacklogOverflow} {
		if cr.count(c) != 0 {
			t.Fatalf("close reported %d drops as %v", cr.count(c), c)
		}
	}
	st := r.a.Stats()
	if st.Dropped[SessionClosed] != int64(inflight+backlog) {
		t.Fatalf("Stats.Dropped = %v", st.Dropped)
	}
}

// TestBacklogOverflowClassified: records refused by a full backlog
// surface through OnDrop with cause BacklogOverflow (they used to be
// counted but never reported).
func TestBacklogOverflowClassified(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoBatch = true
	cfg.QueueCap = 2
	r := newRig(t, 0, cfg)
	cr := recordDrops(r.a)

	// One handler, window 4: 4 go in flight, 2 fill the backlog, the
	// rest overflow.
	for i := int64(0); i < 10; i++ {
		r.a.Send("ghost", tp(i))
	}
	r.loop.RunFor(0)
	st := r.a.Stats()
	if st.QueueDrops == 0 {
		t.Fatal("backlog never overflowed; widen the burst")
	}
	if got := cr.count(BacklogOverflow); int64(got) != st.QueueDrops {
		t.Fatalf("BacklogOverflow upcalls = %d, QueueDrops = %d", got, st.QueueDrops)
	}
	if st.Dropped[BacklogOverflow] != st.QueueDrops {
		t.Fatalf("Stats.Dropped = %v, QueueDrops = %d", st.Dropped, st.QueueDrops)
	}
}

// TestCloseMidBurstUnderDupReorder is the teardown-robustness
// regression: Close lands in the middle of a retransmission burst, with
// duplicated and reordered datagrams still arriving afterwards. The
// closed side must hold no receiver or sender state, emit no further
// acknowledgments, and never resurrect per-peer state from late
// traffic; the surviving side must drain its flight state through the
// retry budget rather than wedge.
func TestCloseMidBurstUnderDupReorder(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NoBatch = true
	cfg.MaxRetries = 2
	r := newRig(t, 0.5, cfg) // heavy loss: retransmissions guaranteed
	cr := recordDrops(r.a)

	for i := int64(0); i < 12; i++ {
		r.a.Send("b", tp(i))
	}
	// Let the first exchanges and retransmissions happen, then tear b
	// down mid-burst.
	r.loop.RunFor(1.5)
	if r.a.Stats().Retransmits == 0 {
		t.Fatal("test needs an active retransmission burst at close time")
	}
	r.b.Close()
	acksAtClose := r.b.Stats().AcksSent

	// Duplicated and reordered frames of the dying burst keep arriving.
	dup := mkDataFrame(0, 0, 0, 0, 3, tp(2))
	r.b.Deliver("a", dup)
	r.b.Deliver("a", dup)
	r.b.Deliver("a", mkDataFrame(0, 0, 0, 0, 1, tp(0)))
	r.loop.RunFor(60)

	if n := len(r.b.peers); n != 0 || len(r.b.PerDest()) != 0 {
		t.Fatalf("closed transport holds state for %d peers, reports %d", n, len(r.b.PerDest()))
	}
	if got := r.b.Stats().AcksSent; got != acksAtClose {
		t.Fatalf("closed transport sent %d acks after Close", got-acksAtClose)
	}
	// a gave up on everything b never acknowledged — classified as
	// network failure (RetryExhausted then PeerDead), never wedged.
	if inFlight(r.a, "b") != 0 || dest(r.a, "b").Backlog != 0 {
		t.Fatalf("survivor wedged: inflight=%d backlog=%d",
			inFlight(r.a, "b"), dest(r.a, "b").Backlog)
	}
	delivered := int64(len(r.got))
	gaveUp := int64(cr.count(RetryExhausted) + cr.count(PeerDead))
	if delivered+gaveUp < 12 {
		t.Fatalf("tuples unaccounted for: %d delivered + %d dropped of 12", delivered, gaveUp)
	}

	// The closed side torn down the other way: a closes with reordered
	// acks still in flight toward it.
	r.a.Close()
	r.a.Deliver("b", appendAck(nil, 0, 5))
	if len(r.a.peers) != 0 || len(r.a.PerDest()) != 0 {
		t.Fatal("late traffic resurrected peer state after Close")
	}
}

// TestDropCauseStrings pins the label names the metrics exporter and
// reason strings use.
func TestDropCauseStrings(t *testing.T) {
	want := map[DropCause]string{
		RetryExhausted:  "RetryExhausted",
		SessionClosed:   "SessionClosed",
		PeerDead:        "PeerDead",
		BacklogOverflow: "BacklogOverflow",
	}
	causes := DropCauses()
	if len(causes) != NumDropCauses {
		t.Fatalf("DropCauses() = %d entries, want %d", len(causes), NumDropCauses)
	}
	for _, c := range causes {
		if c.String() != want[c] {
			t.Fatalf("cause %d = %q", c, c.String())
		}
	}
}

// dropTotal sums a drop vector.
func dropTotal(d DropCounts) int64 {
	var n int64
	for _, v := range d {
		n += v
	}
	return n
}
