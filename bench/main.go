// Command bench is the repository's benchmark: four end-to-end
// workloads driven through the public p2 API (two on the simulator, two
// on real UDP sockets), the correctness checks that go with them, and a
// per-layer ledger (spans, counters, a CPU profile bucketed by layer,
// and micro-drivers). See README.md in this directory.
//
//	go run ./bench -all -seed 1                 every workload, end-to-end metrics
//	go run ./bench -all -seed 1 -trace 1        the traced run: per-layer metrics
//	go run ./bench -workload sim_lookup -seed 7 one workload
//	go run ./bench -layers                      the layer micro-drivers alone
//	go run ./bench -compare a.json b.json       do two sets of runs agree?
//
// With -workload the last line of standard output is the JSON object
// the benchmark driver reads (see BENCHMARK.json at the repository
// root).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// workload is one set of inputs the benchmark runs.
type workload interface {
	id() string
	run(o runOpts) (*result, error)
}

// The four workloads, with every fixed parameter. README.md gives the
// reason for each.
var workloads = []workload{
	simWorkload{name: "sim_lookup", n: 128, shards: 1,
		rate: 1000, settle: 60, virtPerSec: 2.3, drain: 2, setups: 3},
	simWorkload{name: "sim_kv_sharded", n: 512, shards: 2, kv: true,
		rate: 200, putFrac: 0.5, keys: 1024, settle: 60, virtPerSec: 3.3, drain: 2, setups: 1},
	udpWorkload{name: "udp_kv_get"},
	udpWorkload{name: "udp_kv_put", put: true},
}

// benchProcs is the processor count every run is pinned to: the
// reference box has two cores, and a fixed value keeps runs on larger
// machines comparable.
const benchProcs = 2

// environment is recorded in every JSON report.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func currentEnv() environment {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit}
}

// report is what -json writes: the environment and every run made.
type report struct {
	Env  environment `json:"env"`
	Runs []*result   `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and print the driver's JSON line last")
		all     = flag.Bool("all", false, "run every workload, each run in a process of its own")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "measuring time per workload (sets the fixed virtual window on the simulator)")
		trace   = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics")
		layers  = flag.Bool("layers", false, "run the layer micro-drivers at full length (1 s, median of 5)")
		runs    = flag.Int("runs", 1, "with -all: repeat each workload this many times")
		jsonOut = flag.String("json", "", "write the full report to this file")
		spans   = flag.String("spans", "", "with -workload and -trace 1: write the recorded spans to this file")
		compare = flag.Bool("compare", false, "compare two -json reports: bench -compare a.json b.json")
		full    = flag.Bool("full", false, "with -workload: print the whole result as the last line (what -all reads from its children)")
	)
	flag.Parse()
	runtime.GOMAXPROCS(benchProcs)

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: bench -compare a.json b.json")
		}
		os.Exit(compareReports(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}

	rep := report{Env: currentEnv()}
	if !*full {
		fmt.Printf("bench: num_cpu=%d gomaxprocs=%d %s commit=%s\n",
			rep.Env.NumCPU, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.Commit)
	}
	switch {
	case *all:
		// One process per run, as the driver does it: the live heap and the
		// process-wide string interner of one run must not leak into the
		// next one's numbers.
		for _, w := range workloads {
			for i := 0; i < *runs; i++ {
				rep.Runs = append(rep.Runs, runChild(w.id(), *seed, *seconds, *trace))
			}
		}
	case *name != "":
		w := findWorkload(*name)
		if w == nil {
			fatal("no workload named %q; have %s", *name, workloadNames())
		}
		o := runOpts{seed: *seed, seconds: *seconds, layerBudget: 0.02}
		if *trace != 0 {
			o.spans = newSpanRec()
		}
		res, err := w.run(o)
		if err != nil {
			fatal("%s: %v", *name, err)
		}
		res.print(os.Stdout)
		if o.traced() && *spans != "" {
			if err := o.spans.write(*spans); err != nil {
				fatal("%v", err)
			}
		}
		rep.Runs = append(rep.Runs, res)
	case !*layers:
		fatal("nothing to do: give -all, -workload NAME (%s), -layers or -compare", workloadNames())
	}
	if *layers {
		m := metricSet{}
		if err := runLayerDrivers(m, 1.0, 5); err != nil {
			fatal("layers: %v", err)
		}
		res := &result{Workload: "layers", Correct: true, Traced: true, Attempted: 1, Metrics: m}
		res.print(os.Stdout)
		rep.Runs = append(rep.Runs, res)
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", " ")
		if err == nil {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			fatal("%v", err)
		}
	}
	ok := true
	for _, r := range rep.Runs {
		ok = ok && r.Correct
	}
	if *name != "" && !*all {
		// The driver reads the last line of standard output.
		last := rep.Runs[0]
		if *full {
			line, _ := json.Marshal(last)
			fmt.Println(string(line))
		} else {
			fmt.Println(last.contractLine())
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// runChild runs one workload once in a child process (this same
// binary), echoes what it printed and returns the result it reported.
func runChild(name string, seed int64, seconds float64, trace int) *result {
	exe, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-full")
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output() // a child that failed a check exits 1 but still reports
	text := strings.TrimRight(string(out), "\n")
	cut := strings.LastIndexByte(text, '\n')
	fmt.Print(text[:cut+1])
	var res result
	if err := json.Unmarshal([]byte(text[cut+1:]), &res); err != nil || res.Workload != name {
		fatal("%s: child run reported no result (%v)", name, runErr)
	}
	return &res
}

func findWorkload(name string) workload {
	for _, w := range workloads {
		if w.id() == name {
			return w
		}
	}
	return nil
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.id())
	}
	return strings.Join(names, ", ")
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
