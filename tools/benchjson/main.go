// Command benchjson converts `go test -bench` output on stdin into a
// JSON document, so CI can archive one BENCH_<short-sha>.json artifact
// per commit and the performance trajectory of the simulator (events/sec,
// hops/lookup, B/s/node, datagrams/ktuple, ...) is recorded over time.
//
// Usage:
//
//	go test -run '^$' -bench . -benchtime 1x . | go run ./tools/benchjson -o BENCH_abc1234.json
//
// Every benchmark line is parsed into its name, iteration count, and
// the full set of reported metrics (ns/op, B/op, and any custom
// b.ReportMetric units).
//
// With -baseline the run is additionally compared against an archived
// document: for every benchmark present in both, each gated metric
// (events/sec higher-is-better; latency percentiles and kB/node
// lower-is-better) may not regress more than -regress (default 10%)
// past its baseline value, which is how CI turns the trajectory
// artifact into a regression gate. Benchmarks or metrics present on
// only one side warn and skip — baselines age, and an absent metric
// must not mask the comparison of the ones that still match:
//
//	go test -run '^$' -bench . -benchtime 2x . | go run ./tools/benchjson -baseline BENCH_seed.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark's parsed measurements. Shards is lifted out
// of the metrics (or the sub-benchmark name, e.g. ".../shards=8-4")
// for the sharded-simulator benchmarks, and events/sec/core is derived
// when events/sec, a shard count and the run's core count (the num_cpu
// and gomaxprocs metrics) are all known and every shard had a core, so
// trend analysis can compare parallel efficiency across commits
// directly.
type Result struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Shards  int64              `json:"shards,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// finalize resolves the shard count and derives events/sec/core.
// Shards beyond the cores time-share them, so with more shards than
// cores — or an unknown core count — no per-core figure is emitted, and
// one the benchmark reported itself is dropped.
func (r *Result) finalize() {
	if s, ok := r.Metrics["shards"]; ok {
		r.Shards = int64(s)
	} else {
		for _, seg := range strings.Split(r.Name, "/") {
			// Trailing "-N" is GOMAXPROCS, not part of the shard count.
			seg = strings.TrimSpace(seg)
			if rest, ok := strings.CutPrefix(seg, "shards="); ok {
				if i := strings.IndexByte(rest, '-'); i >= 0 {
					rest = rest[:i]
				}
				if v, err := strconv.ParseInt(rest, 10, 64); err == nil {
					r.Shards = v
				}
			}
		}
	}
	ev, ok := r.Metrics["events/sec"]
	if !ok || r.Shards <= 0 {
		return
	}
	cores := int64(min(r.Metrics["num_cpu"], r.Metrics["gomaxprocs"])) // 0 when either is absent
	if r.Shards > cores {
		delete(r.Metrics, "events/sec/core")
		return
	}
	r.Metrics["events/sec/core"] = ev / float64(r.Shards)
}

// Doc is the archived artifact.
type Doc struct {
	Commit string `json:"commit,omitempty"`
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// NumCPU and GOMAXPROCS are what the benchmarks reported in their
	// num_cpu and gomaxprocs metrics: the cores the numbers were taken on.
	NumCPU     int      `json:"num_cpu,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs,omitempty"`
	Timestamp  string   `json:"timestamp"`
	Results    []Result `json:"results"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout)")
	commit := flag.String("commit", os.Getenv("GITHUB_SHA"), "commit SHA to stamp into the document")
	allowEmpty := flag.Bool("allow-empty", false, "emit a document even when no benchmark lines were parsed")
	baseline := flag.String("baseline", "", "baseline BENCH_*.json: fail when any matching benchmark's events/sec regresses more than -regress")
	regress := flag.Float64("regress", 0.10, "fractional events/sec regression tolerated against -baseline")
	flag.Parse()

	doc := Doc{
		Commit:    *commit,
		Timestamp: time.Now().UTC().Format(time.RFC3339),
	}
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			doc.GoOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			doc.GoArch = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			doc.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iters, then (value, unit) pairs.
		if len(fields) < 4 || (len(fields)-2)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		r := Result{Name: fields[0], Iters: iters, Metrics: map[string]float64{}}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			r.Metrics[fields[i+1]] = v
		}
		r.finalize()
		if n, ok := r.Metrics["num_cpu"]; ok {
			doc.NumCPU, doc.GOMAXPROCS = int(n), int(r.Metrics["gomaxprocs"])
		}
		doc.Results = append(doc.Results, r)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// An empty document means the bench run silently produced nothing —
	// a broken pipeline, not a trajectory point. Refuse to archive it so
	// CI fails loudly instead of accumulating hollow artifacts.
	if len(doc.Results) == 0 && !*allowEmpty {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark results parsed from stdin (use -allow-empty to override)")
		os.Exit(1)
	}

	enc, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline != "" {
		if !compareBaseline(&doc, *baseline, *regress) {
			os.Exit(1)
		}
	}
}

// gatedMetrics is the directional regression-gate table: which metrics
// -baseline compares, and which way "worse" points for each. Metrics
// outside this table (ns/op, B/op, shards, raw counts) are archived in
// the artifact but never gate — most of them are measurements of the
// workload, not the simulator.
var gatedMetrics = []struct {
	name         string
	higherBetter bool
}{
	{"events/sec", true},
	{"ops/sec", true},
	{"p50-ms", false},
	{"p99-ms", false},
	{"p999-ms", false},
	{"stale-frac", false},
	{"kB/node", false},
}

// compareBaseline checks the parsed run against an archived document:
// for every benchmark name present in both, each gated metric present
// on both sides may not regress more than the tolerated fraction past
// the baseline value — below it for higher-is-better metrics
// (events/sec), above it for lower-is-better ones (latency
// percentiles, kB/node). Benchmarks or gated metrics present on only
// one side are warned about and skipped — baselines age, and a
// renamed benchmark or newly reported metric must not mask the
// comparison of the ones that still match. Returns false on any
// regression beyond tolerance.
func compareBaseline(doc *Doc, path string, tol float64) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		return false
	}
	var base Doc
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %s: %v\n", path, err)
		return false
	}
	cur := make(map[string]map[string]float64, len(doc.Results))
	for _, r := range doc.Results {
		cur[r.Name] = r.Metrics
	}
	ok, compared := true, 0
	for _, b := range base.Results {
		cm, present := cur[b.Name]
		if !present {
			if gatesAny(b.Metrics) {
				fmt.Fprintf(os.Stderr, "benchjson: warning: %s in baseline but not in this run; skipped\n", b.Name)
			}
			continue
		}
		for _, g := range gatedMetrics {
			bv, inBase := b.Metrics[g.name]
			cv, inCur := cm[g.name]
			switch {
			case !inBase && !inCur:
				continue
			case !inBase:
				fmt.Fprintf(os.Stderr, "benchjson: warning: %s %s has no baseline value; skipped\n", b.Name, g.name)
				continue
			case !inCur:
				fmt.Fprintf(os.Stderr, "benchjson: warning: %s no longer reports %s; skipped\n", b.Name, g.name)
				continue
			case bv == 0:
				continue
			}
			compared++
			// delta > 0 always means "got worse".
			delta := cv/bv - 1
			if g.higherBetter {
				delta = -delta
			}
			status := "ok"
			if delta > tol {
				status = "REGRESSION"
				ok = false
			}
			fmt.Fprintf(os.Stderr, "benchjson: %-50s %-10s %12.2f -> %12.2f (%+.1f%% worse) %s\n",
				b.Name, g.name, bv, cv, delta*100, status)
		}
	}
	for _, r := range doc.Results {
		if !gatesAny(r.Metrics) {
			continue
		}
		if _, found := cur[r.Name]; found {
			if _, inBase := findResult(base.Results, r.Name); !inBase {
				fmt.Fprintf(os.Stderr, "benchjson: warning: %s has no baseline entry; skipped\n", r.Name)
			}
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: warning: no benchmark matched the baseline; nothing compared")
	}
	return ok
}

// gatesAny reports whether any gated metric is present.
func gatesAny(m map[string]float64) bool {
	for _, g := range gatedMetrics {
		if _, ok := m[g.name]; ok {
			return true
		}
	}
	return false
}

// findResult looks a benchmark up by name.
func findResult(rs []Result, name string) (Result, bool) {
	for _, r := range rs {
		if r.Name == name {
			return r, true
		}
	}
	return Result{}, false
}
