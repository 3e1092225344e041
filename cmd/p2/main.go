// Command p2 runs an OverLog overlay specification on a real UDP node —
// the deployable form of the system ("deployable as a service or
// library", §1).
//
//	# terminal 1: create a Chord ring
//	p2 -spec chord -addr 127.0.0.1:7001 \
//	   -fact 'landmark=127.0.0.1:7001,-' -fact 'join=127.0.0.1:7001,boot1' \
//	   -watch bestSucc
//
//	# terminal 2: join it
//	p2 -spec chord -addr 127.0.0.1:7002 \
//	   -fact 'landmark=127.0.0.1:7002,127.0.0.1:7001' \
//	   -fact 'join=127.0.0.1:7002,boot2' -watch bestSucc
//
// Facts are name=field,field,... where the first field is usually the
// node's own address. Each -watch R adds a watch(R). directive to the
// spec, so it and the spec's own watch() directives print every event
// of the relation on standard output.
//
// The node's runtime is itself queryable: -top renders a live view of
// the sys* system tables (tables, rule firings, per-peer traffic), and
// -monitor installs extra OverLog rules — e.g. aggregates over
// sysTable — into the node after it starts.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"p2"
	"p2/internal/overlays"
)

type factList []string

func (f *factList) String() string     { return strings.Join(*f, ";") }
func (f *factList) Set(s string) error { *f = append(*f, s); return nil }

type watchList []string

func (w *watchList) String() string     { return strings.Join(*w, ",") }
func (w *watchList) Set(s string) error { *w = append(*w, s); return nil }

func main() {
	spec := flag.String("spec", "chord", "overlay: builtin name or .olg file path")
	addr := flag.String("addr", "127.0.0.1:7001", "UDP address to bind (also the node's identity)")
	duration := flag.Duration("duration", 0, "run time (0 = until interrupted)")
	seed := flag.Int64("seed", time.Now().UnixNano(), "random seed")
	unreliable := flag.Bool("unreliable", false, "compose the short transport chain: no acks, retries, or congestion control")
	noBatch := flag.Bool("nobatch", false, "disable tuple batching: one tuple per datagram")
	ackDelay := flag.Duration("ack-delay", 20*time.Millisecond, "how long to wait for reverse-path data to piggyback acks on")
	monitor := flag.String("monitor", "", "OverLog file to Install into the running node (monitoring rules)")
	metrics := flag.String("metrics", "", "serve Prometheus text metrics at this address (e.g. :9090)")
	record := flag.String("record", "", "record this node's wire traffic to a trace file (replayable with p2sim -replay)")
	faultDrop := flag.Float64("fault-drop", 0, "inject seeded datagram loss at this probability (enables the fault layer)")
	faultDup := flag.Float64("fault-dup", 0, "inject seeded datagram duplication at this probability")
	faultReorder := flag.Float64("fault-reorder", 0, "inject seeded datagram reordering at this probability")
	top := flag.Bool("top", false, "render a live p2top view of the sys* system tables")
	topEvery := flag.Duration("top-interval", 2*time.Second, "refresh period of the -top view")
	var facts factList
	var watches watchList
	flag.Var(&facts, "fact", "startup fact name=f1,f2,... (repeatable)")
	flag.Var(&watches, "watch", "relation to trace (repeatable)")
	flag.Parse()

	src := overlays.Lookup(*spec)
	if src == "" {
		data, err := os.ReadFile(*spec)
		if err != nil {
			fatal("reading spec: %v", err)
		}
		src = string(data)
	}
	for _, w := range watches {
		src += "\nwatch(" + w + ")."
	}
	plan, err := p2.Compile(src, nil)
	if err != nil {
		fatal("compiling spec: %v", err)
	}

	tcfg := p2.DefaultTransportConfig()
	tcfg.Unreliable = *unreliable
	tcfg.NoBatch = *noBatch
	tcfg.AckDelay = ackDelay.Seconds()
	opts := []p2.Option{
		p2.WithSeed(*seed), p2.WithTransport(tcfg),
		p2.WithNodeDefaults(p2.NodeOptions{TraceWriter: os.Stdout}),
	}
	if *metrics != "" {
		opts = append(opts, p2.WithMetrics(*metrics))
	}
	if *record != "" {
		opts = append(opts, p2.WithRecord(*record))
	}
	if *faultDrop > 0 || *faultDup > 0 || *faultReorder > 0 {
		opts = append(opts, p2.WithFaults(p2.FaultConfig{
			Seed:        *seed,
			DropRate:    *faultDrop,
			DupRate:     *faultDup,
			ReorderRate: *faultReorder,
		}))
	}
	dep, err := p2.NewDeployment(p2.UDP, opts...)
	if err != nil {
		fatal("deployment: %v", err)
	}
	defer dep.Close()
	node, err := dep.Spawn(*addr, plan)
	if err != nil {
		fatal("starting node: %v", err)
	}
	fmt.Printf("p2: node %s running %s (%d rules)\n", *addr, *spec, plan.RuleCount())
	if ma := dep.MetricsAddr(); ma != "" {
		fmt.Printf("p2: metrics at http://%s/metrics\n", ma)
	}

	node.Do(func(n *p2.Node) {
		for _, f := range facts {
			name, fields, err := parseFact(f)
			if err != nil {
				fmt.Fprintf(os.Stderr, "p2: %v\n", err)
				return
			}
			n.AddFact(name, fields...)
		}
	})

	if *monitor != "" {
		src, err := os.ReadFile(*monitor)
		if err != nil {
			fatal("reading monitor rules: %v", err)
		}
		if err := node.Install(string(src)); err != nil {
			fatal("installing monitor rules: %v", err)
		}
		fmt.Printf("p2: installed %s\n", *monitor)
	}

	done := make(chan struct{})
	if *duration > 0 {
		go func() { time.Sleep(*duration); close(done) }()
	} else {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		go func() { <-sig; close(done) }()
	}

	if *top {
		ticker := time.NewTicker(*topEvery)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				fmt.Println("\np2: shutting down")
				return
			case <-ticker.C:
				fmt.Print(renderTop(node))
			}
		}
	}
	<-done
	fmt.Println("\np2: shutting down")
}

// renderTop snapshots the node's system-table counters in one trip to
// its event loop — so every section of a frame reflects the same
// instant — and renders them as a p2top-style dashboard frame.
func renderTop(node *p2.Handle) string {
	type snap struct {
		addr   string
		ns     p2.NodeStat
		tables []p2.TableStat
		rules  []p2.RuleStat
		plans  []p2.PlanStat
		nets   []p2.NetStat
		conds  []p2.Condition
	}
	var s snap
	node.Do(func(n *p2.Node) {
		s = snap{n.Addr(), n.NodeStat(), n.TableStats(), n.RuleStats(), n.PlanStats(), n.NetStats(), n.Conditions()}
	})

	var sb strings.Builder
	sb.WriteString("\033[H\033[2J") // home + clear
	fmt.Fprintf(&sb, "p2top — %s  up %.1fs  events %d  queue %d\n\n",
		s.addr, s.ns.UptimeS, s.ns.Events, s.ns.Queue)
	fmt.Fprintf(&sb, "%-24s %8s %10s %10s %10s\n", "TABLE", "TUPLES", "INSERTS", "DELETES", "REFRESH")
	for _, t := range s.tables {
		fmt.Fprintf(&sb, "%-24s %8d %10d %10d %10d\n", t.Name, t.Tuples, t.Inserts, t.Deletes, t.Refreshes)
	}
	sort.Slice(s.rules, func(i, j int) bool { return s.rules[i].Fires > s.rules[j].Fires })
	if len(s.rules) > 10 {
		s.rules = s.rules[:10]
	}
	fmt.Fprintf(&sb, "\n%-24s %8s\n", "RULE (top 10)", "FIRES")
	for _, r := range s.rules {
		fmt.Fprintf(&sb, "%-24s %8d\n", r.ID, r.Fires)
	}
	sort.Slice(s.plans, func(i, j int) bool { return s.plans[i].Rule < s.plans[j].Rule })
	shown := 0
	for _, p := range s.plans {
		if p.Order == "-" {
			continue // a frozen rule's textual plan — noise in a dashboard
		}
		if shown == 0 {
			fmt.Fprintf(&sb, "\n%-24s %-24s %10s\n", "PLAN", "ORDER", "COST")
		}
		if shown++; shown > 10 {
			break
		}
		fmt.Fprintf(&sb, "%-24s %-24s %10.4g\n", p.Rule, p.Order, p.CostEst)
	}
	fmt.Fprintf(&sb, "\n%-24s %8s %8s %10s %8s %6s %7s %7s %6s %6s\n",
		"PEER", "SENT", "RECVD", "BYTES", "RETRY", "CWND", "RTO", "BACKLOG", "FILL", "DROPS")
	for _, d := range s.nets {
		var drops int64
		for _, v := range d.Drops {
			drops += v
		}
		fmt.Fprintf(&sb, "%-24s %8d %8d %10d %8d %6.1f %7.3f %7d %6.1f %6d\n",
			d.Dest, d.Sent, d.Recvd, d.Bytes, d.Retries, d.Cwnd, d.RTO, d.Backlog, d.BatchFill, drops)
	}
	fmt.Fprintf(&sb, "\n%-24s %-8s %s\n", "CONDITION", "STATUS", "REASON")
	for _, c := range s.conds {
		fmt.Fprintf(&sb, "%-24s %-8s %s\n", c.Type, c.Status, c.Reason)
	}
	return sb.String()
}

// parseFact decodes "name=f1,f2,...". Fields parse as int, then float,
// then string.
func parseFact(s string) (string, []p2.Value, error) {
	name, rest, ok := strings.Cut(s, "=")
	if !ok {
		return "", nil, fmt.Errorf("fact %q: want name=f1,f2,...", s)
	}
	var fields []p2.Value
	if rest != "" {
		for _, part := range strings.Split(rest, ",") {
			fields = append(fields, parseValue(part))
		}
	}
	return name, fields, nil
}

func parseValue(s string) p2.Value {
	if n, err := strconv.ParseInt(s, 10, 64); err == nil {
		return p2.Int(n)
	}
	if f, err := strconv.ParseFloat(s, 64); err == nil {
		return p2.Float(f)
	}
	return p2.Str(s)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "p2: "+format+"\n", args...)
	os.Exit(1)
}
