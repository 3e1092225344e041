package main

// Layer micro-drivers: the unit cost of each layer's public functions
// on inputs shaped like the workloads' (a 160-row finger table, a
// lookup tuple, the Chord+KV program). These are the only places the
// benchmark calls internal packages directly. Each figure is the median
// of several repetitions, each a loop of about `budget` seconds.

import (
	"fmt"
	"sync/atomic"
	"time"

	"p2"
	"p2/internal/engine"
	"p2/internal/eventloop"
	"p2/internal/id"
	"p2/internal/netif"
	"p2/internal/overlog"
	"p2/internal/pel"
	"p2/internal/planner"
	"p2/internal/simnet"
	"p2/internal/table"
	"p2/internal/transport"
	"p2/internal/tuple"
	"p2/internal/udpnet"
	"p2/internal/val"
)

// perCall returns the median over reps of fn's seconds per call. The
// loop length is calibrated once so one repetition takes about budget.
func perCall(budget float64, reps int, fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		el := time.Since(start).Seconds()
		if el >= budget/8 || n >= 1<<28 {
			if n = int(float64(n) * budget / el); n < 1 {
				n = 1
			}
			break
		}
		n *= 8
	}
	per := make([]float64, reps)
	for r := range per {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		per[r] = time.Since(start).Seconds() / float64(n)
	}
	return median(per)
}

// sink keeps results alive so the compiler cannot drop the measured
// call.
var sink any

const fingers = 160

func lookupTuple(i int) *tuple.Tuple {
	return tuple.New("lookup", val.Str("n0:p2"), val.MakeID(id.Hash(fmt.Sprint("key", i))),
		val.Str("n7:p2"), val.Str(fmt.Sprint("bl!", i)))
}

// fingerRows is a full finger table for the node at addr:
// finger(NI, I, B, BI) with B = N + 2^I and BI named after peer.
func fingerRows(addr, peer string) []*tuple.Tuple {
	n := id.Hash(addr)
	rows := make([]*tuple.Tuple, fingers)
	for i := range rows {
		rows[i] = tuple.New("finger", val.Str(addr), val.Int(int64(i)),
			val.MakeID(n.Add(id.Pow2(uint(i)))), val.Str(fmt.Sprintf("%s%d:p2", peer, i)))
	}
	return rows
}

type fixedClock struct{}

func (fixedClock) Now() float64 { return 0 }

func runLayerDrivers(m metricSet, budget float64, reps int) error {
	ns := func(name string, fn func()) { m.set(name, perCall(budget, reps, fn)*1e9, "ns") }
	us := func(name string, fn func()) { m.set(name, perCall(budget, reps, fn)*1e6, "us") }
	ms := func(name string, fn func()) { m.set(name, perCall(budget, reps, fn)*1e3, "ms") }

	// Front end: what compiling the Chord+KV program costs set-up.
	ms("overlog.parse_ms", func() {
		sink = overlog.MustParse(p2.ChordSource)
		sink = overlog.MustParse(p2.KVSource)
	})
	prog, err := overlog.Merge(overlog.MustParse(p2.ChordSource), overlog.MustParse(p2.KVSource))
	if err != nil {
		panic(err)
	}
	ms("planner.compile_ms", func() { sink = planner.MustCompile(prog, nil) })
	plan := planner.MustCompile(prog, nil)
	ms("planner.optimize_ms", func() { sink = planner.Optimize(plan, nil, planner.OptimizerConfig{}) })

	// Rule evaluation: the lookup rules' ring distance and interval test
	// (D := K - B - 1, B in (N,K)) over a lookup joined with a finger.
	lk := lookupTuple(1)
	fr := fingerRows("n0:p2", "peer")
	one := val.MakeID(id.One)
	nodeID := val.MakeID(id.Hash("n0:p2"))
	dist := pel.NewBuilder().Field(1).Field(6).Op(pel.OpSub).Const(one).Op(pel.OpSub).Build()
	in := pel.NewBuilder().Field(6).Const(nodeID).Field(1).In(false, false).Build()
	vm, env := pel.NewVM(), &pel.Env{Clock: fixedClock{}}
	i := 0
	ns("pel.eval_ns", func() {
		f := fr[i%fingers]
		i++
		sink, _ = vm.EvalJoined(dist, lk, f, env)
		sink, _ = vm.EvalJoined(in, lk, f, env)
	})
	a, b := lk.Field(1), fr[80].Field(2)
	ns("val.id_sub_ns", func() { sink = val.Sub(a, b) })

	tb := table.New("finger", 180, fingers, []int{1}, fixedClock{})
	byNode := tb.EnsureIndex([]int{0})
	for _, r := range fr {
		tb.Insert(r)
	}
	alt := fingerRows("n0:p2", "other") // same keys, different rows: every insert replaces
	ns("table.insert_ns", func() {
		rows := fr
		if i/fingers%2 == 1 {
			rows = alt
		}
		tb.Insert(rows[i%fingers])
		i++
	})
	var key []byte
	ns("table.probe_ns", func() {
		key = lk.AppendKey(key[:0], []int{0})
		byNode.PeekEach(key, func(t *tuple.Tuple) bool { sink = t; return true })
	})
	us("engine.lookup_hop_us", lookupHop(plan))

	// Wire: one lookup tuple encoded, decoded, and carried end to end by
	// two transports over a simulated link.
	wire := lk.Marshal()
	ns("tuple.marshal_ns", func() { sink = lk.Marshal() })
	ns("tuple.unmarshal_ns", func() { sink, _, _ = tuple.Unmarshal(wire) })
	ns("transport.tuple_ns", transportBurst())

	// Simulator machinery.
	sim := eventloop.NewSim()
	nop := func() {}
	ns("eventloop.sim_timer_ns", func() { sim.AfterFree(0.001, nop); sim.RunFor(0.002) })
	ns("eventloop.sim_defer_ns", func() { sim.Defer(nop); sim.RunFor(0) })
	ss := eventloop.NewShardedSim(2, 0.001)
	ns("eventloop.epoch_ns", func() { ss.RunFor(0.001) })
	ss.Close()
	epoch, closeNet := shardedSend()
	m.set("simnet.send_ns", perCall(budget, reps, epoch)*1e9/sendBurst, "ns")
	closeNet()

	// Real-time machinery: the p50 of one round trip each.
	post, err := realPostP50(budget * float64(reps))
	if err != nil {
		return err
	}
	m.set("eventloop.real_post_us_p50", post*1e6, "us")
	rtt, err := udpRTTP50(budget * float64(reps))
	if err != nil {
		return err
	}
	m.set("udpnet.rtt_us_p50", rtt*1e6, "us")
	return nil
}

// lookupHop returns a driver that injects one lookup into a lone engine
// node holding a full finger table and runs its loop: rules L1 to L3
// pick the closest preceding finger and hand the tuple to an unreliable
// transport, whose datagram the network drops (the finger targets do
// not exist).
func lookupHop(plan *planner.Plan) func() {
	const addr = "n0:p2"
	loop := eventloop.NewSim()
	net := simnet.New(loop, simnet.DefaultConfig())
	tc := transport.DefaultConfig()
	tc.Unreliable = true
	n := engine.NewNode(addr, loop, net, plan, engine.Options{Seed: 1, Transport: &tc})
	if err := n.Start(); err != nil {
		panic(err)
	}
	loop.RunFor(1) // rule I0 derives the node's identifier
	rows := fingerRows(addr, "peer")
	for _, r := range rows {
		n.InjectTuple(r)
	}
	n.InjectTuple(tuple.New("bestSucc", val.Str(addr), rows[0].Field(2), rows[0].Field(3)))
	loop.RunFor(0.1)
	i := 0
	return func() {
		i++
		n.InjectTuple(lookupTuple(i))
		loop.RunFor(0.0001) // well inside the fingers' 180 s lifetime over any run
	}
}

// transportBurst returns a driver whose call sends one tuple; every
// 50th call runs the loop until the burst is delivered, as a strand's
// output burst would be.
func transportBurst() func() {
	loop := eventloop.NewSim()
	cfg := simnet.DefaultConfig()
	cfg.Domains = 1
	net := simnet.New(loop, cfg)
	var src, dst *transport.Transport
	epA, _ := net.Attach("a", func(from string, p []byte) { src.Deliver(from, p) })
	epB, _ := net.Attach("b", func(from string, p []byte) { dst.Deliver(from, p) })
	src = transport.New(loop, epA, transport.DefaultConfig())
	dst = transport.New(loop, epB, transport.DefaultConfig())
	got := 0
	dst.OnReceive(func(string, *tuple.Tuple) { got++ })
	t := lookupTuple(1)
	sent := 0
	return func() {
		src.Send("b", t)
		if sent++; sent%50 == 0 {
			for got < sent {
				loop.RunFor(0.05)
			}
		}
	}
}

// sendBurst is the number of datagrams shardedSend emits per epoch.
const sendBurst = 32

// shardedSend returns a driver whose call runs one epoch of a two-shard
// simulated network in which one shard sends a burst of datagrams to
// the other: each is staged in the sender's outbox, merged at the epoch
// barrier and delivered on the other shard. Divided by sendBurst it is
// the cost per datagram, the epoch's own cost included.
func shardedSend() (epoch func(), closeNet func()) {
	cfg := simnet.DefaultConfig()
	cfg.Domains = 2
	cfg.StubBps = 1e9 // the burst must fit the access link, or its queue grows for as long as the driver runs
	ss := eventloop.NewShardedSim(2, cfg.Lookahead())
	net := simnet.NewSharded(ss, cfg)
	// Two addresses the topology places on different shards.
	a, b := "a0", ""
	for i := 0; b == ""; i++ {
		if c := fmt.Sprint("b", i); net.ShardOf(c) != net.ShardOf(a) {
			b = c
		}
	}
	got := 0
	epA, _ := net.Attach(a, func(string, []byte) {})
	net.Attach(b, func(string, []byte) { got++ })
	payload := make([]byte, 100)
	loopA := net.ShardLoop(a)
	var tick func()
	tick = func() {
		for i := 0; i < sendBurst; i++ {
			epA.Send(b, payload)
		}
		loopA.AfterFree(cfg.Lookahead(), tick)
	}
	loopA.AfterFree(0, tick)
	return func() { ss.RunFor(cfg.Lookahead()) }, func() {
		ss.Close()
		sink = got
	}
}

// realPostP50 is the median time to post a function to a running
// wall-clock loop and see it run.
func realPostP50(total float64) (float64, error) {
	loop := eventloop.NewReal()
	go loop.Run()
	defer func() { loop.Stop(); <-loop.Stopped() }()
	done := make(chan struct{})
	var lat []float64
	for end := time.Now().Add(time.Duration(total * float64(time.Second))); time.Now().Before(end); {
		start := time.Now()
		if err := loop.Post(func() { done <- struct{}{} }); err != nil {
			return 0, err
		}
		<-done
		lat = append(lat, time.Since(start).Seconds())
	}
	return percentile(lat, 0.5), nil
}

// udpRTTP50 is the median loopback round trip of a 100-byte datagram
// between two udpnet endpoints, each on its own wall-clock loop.
func udpRTTP50(total float64) (float64, error) {
	loopA, loopB := eventloop.NewReal(), eventloop.NewReal()
	go loopA.Run()
	go loopB.Run()
	defer func() {
		loopA.Stop()
		loopB.Stop()
		<-loopA.Stopped()
		<-loopB.Stopped()
	}()
	addrA, err := udpnet.ReserveAddr()
	if err != nil {
		return 0, err
	}
	addrB := addrA // a reserved port is released at once, so the next may be the same one
	for addrB == addrA {
		if addrB, err = udpnet.ReserveAddr(); err != nil {
			return 0, err
		}
	}
	back := make(chan struct{}, 1)
	epA, err := udpnet.New(loopA).Attach(addrA, func(string, []byte) { back <- struct{}{} })
	if err != nil {
		return 0, err
	}
	defer epA.Close()
	var echo atomic.Pointer[netif.Endpoint] // set before the first datagram is sent
	epB, err := udpnet.New(loopB).Attach(addrB, func(from string, p []byte) { (*echo.Load()).Send(from, p) })
	if err != nil {
		return 0, err
	}
	defer epB.Close()
	echo.Store(&epB)
	payload := make([]byte, 100)
	var lat []float64
	for end := time.Now().Add(time.Duration(total * float64(time.Second))); time.Now().Before(end); {
		start := time.Now()
		epA.Send(addrB, payload)
		select {
		case <-back:
			lat = append(lat, time.Since(start).Seconds())
		case <-time.After(time.Second): // a lost datagram: count nothing, send again
		}
	}
	return percentile(lat, 0.5), nil
}
