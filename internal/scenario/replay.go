package scenario

import (
	"fmt"
	"sort"

	"p2"
	"p2/internal/engine"
	"p2/internal/eventloop"
	"p2/internal/netif"
	"p2/internal/seed"
	"p2/internal/trace"
	"p2/internal/transport"
	"p2/internal/val"
)

// Replay re-executes a recorded UDP Chord run offline, through the
// virtual-time simulator: each recorded node gets a fresh engine node
// on its own simulated loop, its boot facts are re-injected at time
// zero, and every datagram the wire delivered to it is re-delivered to
// its transport at the recorded clock reading. Outbound sends go
// nowhere — the trace already contains their observed consequences —
// so each node's derived state is reproduced purely from its recorded
// input stream.
//
// addrs is the recorded run's spawn-order address list (Result.Addrs):
// index 0 is the Chord landmark, and the returned digest is normalized
// to these indices in Result.Digest's exact form, so comparing it to
// the live run's Digest is the record/replay conformance check. until
// is the virtual time to run each node to — at least the trace's
// End(), normally the recorded run's total duration.
//
// Replay assumes the recorded scenario had no kills or replaces: a
// trace interleaving two incarnations of one address would replay both
// incarnations' inbound traffic into a single node.
func Replay(tr *trace.Trace, addrs []string, masterSeed int64, until float64) (string, error) {
	if until < tr.End() {
		until = tr.End()
	}
	idx := make(map[string]int, len(addrs))
	for i, a := range addrs {
		idx[a] = i
	}
	plan, err := p2.Compile(p2.ChordSource, nil)
	if err != nil {
		return "", err
	}

	// Group each node's inbound records; the trace is append-ordered
	// per node (one writer per loop), but sort defensively by time.
	inbound := make(map[string][]trace.Rec)
	for _, rec := range tr.Recs {
		if rec.Dir == trace.Recv {
			inbound[rec.Dst] = append(inbound[rec.Dst], rec)
		}
	}

	digest := make([]string, 0, len(addrs))
	for i, addr := range addrs {
		loop := eventloop.NewSim()
		tc := transport.DefaultConfig()
		tc.Epoch = 1 // matches the recorded first incarnation
		n := engine.NewNode(addr, loop, silentNet{}, plan, engine.Options{
			Seed:               seed.For(masterSeed, "node", addr),
			Transport:          &tc,
			IntrospectInterval: -1,
		})
		if err := n.Start(); err != nil {
			return "", fmt.Errorf("scenario: replay node %s: %w", addr, err)
		}
		lm := "-"
		if i != 0 {
			lm = addrs[0]
		}
		n.AddFact("landmark", val.Str(addr), val.Str(lm))
		n.AddFact("join", val.Str(addr), val.Str(addr+"!boot"))

		recs := inbound[addr]
		sort.SliceStable(recs, func(a, b int) bool { return recs[a].T < recs[b].T })
		for _, rec := range recs {
			rec := rec
			loop.At(rec.T, func() { n.Transport().Deliver(rec.Src, rec.Payload) })
		}
		loop.Run(until)

		succ := "?"
		if tb := n.Table("bestSucc"); tb != nil {
			if rows := tb.Scan(); len(rows) == 1 {
				// A successor outside the replayed set (a peer that did
				// not record, e.g. a single-node p2 -record session)
				// renders by raw address; "?" means no successor derived.
				succ = rows[0].Field(2).AsStr()
				if j, ok := idx[succ]; ok {
					succ = fmt.Sprintf("%d", j)
				}
			}
		}
		digest = append(digest, fmt.Sprintf("%d->%s", i, succ))
		n.Stop()
	}
	return join(digest), nil
}

// silentNet is the replay network: deliveries come from the trace, and
// sends vanish (their effects are already recorded).
type silentNet struct{}

func (silentNet) Attach(addr string, _ netif.DeliverFunc) (netif.Endpoint, error) {
	return silentEndpoint{addr: addr}, nil
}

type silentEndpoint struct{ addr string }

func (silentEndpoint) Send(string, []byte) {}

func (e silentEndpoint) LocalAddr() string { return e.addr }
func (silentEndpoint) Close()              {}
