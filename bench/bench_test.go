package main

// Smoke tests that keep the benchmark building and honest under the
// repository's ordinary `go test ./...`: every workload at toy scale
// passes its own correctness checks, simulator runs repeat exactly, the
// helpers the numbers rest on are unit-tested, and BENCHMARK.json names
// exactly what the program emits.

import (
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	runtime.GOMAXPROCS(benchProcs)
	os.Exit(m.Run())
}

var (
	toyLookup = simWorkload{name: "toy_lookup", n: 16, shards: 1,
		rate: 50, settle: 30, virtPerSec: 1, drain: 2, setups: 1}
	toyKV = simWorkload{name: "toy_kv", n: 16, shards: 2, kv: true,
		rate: 20, putFrac: 0.5, keys: 32, settle: 30, virtPerSec: 1, drain: 2, setups: 1}
)

func toyOpts(trace bool) runOpts {
	o := runOpts{seed: 3, seconds: 2, layerBudget: 0.001}
	if trace {
		o.spans = newSpanRec()
	}
	return o
}

func mustRun(t *testing.T, w workload, o runOpts) *result {
	t.Helper()
	res, err := w.run(o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func metricNames(m metricSet) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func TestSimWorkloadsRepeatExactly(t *testing.T) {
	for _, w := range []simWorkload{toyLookup, toyKV} {
		a, b := mustRun(t, w, toyOpts(false)), mustRun(t, w, toyOpts(false))
		if !a.Correct || a.Failed != 0 {
			t.Fatalf("%s: correct=%v failed=%d of %d: %v", w.name, a.Correct, a.Failed, a.Attempted, a.Problems)
		}
		if a.Digest == "" || a.Digest != b.Digest {
			t.Errorf("%s: sim_digest %q then %q for one seed", w.name, a.Digest, b.Digest)
		}
		for _, exact := range []string{"op_p50_ms", "op_p95_ms", "wire_B_per_op"} {
			if a.Metrics[exact] != b.Metrics[exact] {
				t.Errorf("%s: %s %v then %v for one seed", w.name, exact, a.Metrics[exact], b.Metrics[exact])
			}
		}
	}
}

func TestShardCountDoesNotChangeDigest(t *testing.T) {
	one := toyKV
	one.shards = 1
	a, b := mustRun(t, one, toyOpts(false)), mustRun(t, toyKV, toyOpts(false))
	if a.Digest != b.Digest {
		t.Errorf("sim_digest %s at shards=1, %s at shards=2", a.Digest, b.Digest)
	}
}

func TestMoreShardsThanProcessorsRefused(t *testing.T) {
	w := toyKV
	w.shards = benchProcs + 1
	if _, err := w.run(toyOpts(false)); err == nil {
		t.Fatal("a run with more shards than processors was accepted")
	}
}

func TestUDPWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("binds loopback sockets and waits out the fixed settle")
	}
	for _, w := range []udpWorkload{{name: "udp_kv_get"}, {name: "udp_kv_put", put: true}} {
		w := w
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			o := toyOpts(false)
			o.seconds = 1
			res := mustRun(t, w, o)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d of %d: %v", res.Correct, res.Failed, res.Attempted, res.Problems)
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to what the program emits: the
// same workloads, every end-to-end metric from an untraced run and every
// per-layer metric from a traced one, with the same units.
func TestBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var have, want []string
	for _, w := range spec.Workloads {
		want = append(want, w.Name)
	}
	for _, w := range workloads {
		have = append(have, w.id())
	}
	if strings.Join(have, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: program has %v, BENCHMARK.json has %v", have, want)
	}
	traced := mustRun(t, toyKV, toyOpts(true))
	for _, p := range traced.Problems {
		if strings.Contains(p, "sim_digest") {
			t.Error(p)
		}
	}
	check := func(kind string, specs []metricSpec, got metricSet) {
		declared := metricSet{}
		for _, s := range specs {
			declared[s.Name] = metricValue{Unit: s.Unit}
		}
		if a, b := metricNames(got), metricNames(declared); strings.Join(a, ",") != strings.Join(b, ",") {
			t.Errorf("%s metrics: program emits %v, BENCHMARK.json declares %v", kind, a, b)
		}
		for n, v := range got {
			if declared[n].Unit != v.Unit {
				t.Errorf("%s: unit %q emitted, %q declared", n, v.Unit, declared[n].Unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, mustRun(t, toyKV, toyOpts(false)).Metrics)
	check("per_layer", spec.PerLayer, traced.Metrics)

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	for _, s := range append(append([]metricSpec{}, spec.EndToEnd...), spec.PerLayer...) {
		if !name.MatchString(s.Name) || !unit.MatchString(s.Unit) || (s.Better != "lower" && s.Better != "higher") {
			t.Errorf("metric %+v breaks the driver's naming rules", s)
		}
		if s.Bound < 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 3}, {1, 5}, {0.25, 2}, {0.9, 4.6}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of nothing is not 0")
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25].
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	got, ok := quartileSpread(v)
	if want := (8.25 - 2.75) / 5.5; !ok || math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, %v; want %v", got, ok, want)
	}
	if _, ok := quartileSpread(v[:3]); ok {
		t.Error("three values have no quartile spread")
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "op_p50_ms", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.1}
	steady := []float64{100, 101, 99, 100, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(steady))
		for i, v := range steady {
			out[i] = v * f
		}
		return out
	}
	for _, c := range []struct {
		spec metricSpec
		b    []float64
		want string
	}{
		{lower, scale(1.05), "ok"}, {lower, scale(1.2), "worse"}, {lower, scale(0.5), "ok"},
		{higher, scale(0.95), "ok"}, {higher, scale(0.8), "worse"}, {higher, scale(2), "ok"},
		{lower, []float64{80, 100, 120, 140, 100}, "unresolved"},
	} {
		if _, got := verdict(c.spec, steady, c.b); got != c.want {
			t.Errorf("%s a=%v b=%v: %s, want %s", c.spec.Name, steady, c.b, got, c.want)
		}
	}
}

func TestLayerOfStack(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		{[]string{"p2/internal/pel.(*VM).run", "p2/internal/dataflow.(*FoldJoin).Push"}, "pel"},
		{[]string{"runtime.memmove", "p2/internal/tuple.(*Tuple).Marshal", "p2/internal/transport.(*Transport).Send"}, "tuple"},
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "runtime.newobject", "p2/internal/val.Sub"}, "runtime.malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc1", "runtime.mallocgc", "p2/internal/val.Sub"}, "runtime.gc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc"},
		{[]string{"runtime.futex", "runtime.futexwakeup", "runtime.notewakeup", "runtime.startm", "runtime.wakep", "runtime.ready",
			"runtime.chansend", "p2/internal/eventloop.(*ShardedSim).runEpoch"}, "runtime.sched"},
		{[]string{"runtime.chansend", "p2/internal/eventloop.(*ShardedSim).runEpoch"}, "eventloop"},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.sendto", "net.(*UDPConn).WriteTo", "p2/internal/udpnet.(*endpoint).Send"}, "syscall"},
		{[]string{"p2.(*KVClient).onGetResp", "p2/internal/engine.(*Node).notifyWatch"}, "p2"},
		{[]string{"main.(*simRing).runWindow", "main.main"}, "bench"},
		{[]string{"p2/internal/health.(*Evaluator).Eval"}, "introspect"},
		{[]string{"runtime.main"}, "other"},
	} {
		if got := layerOfStack(c.stack); got != c.want {
			t.Errorf("layerOfStack(%v) = %s, want %s", c.stack, got, c.want)
		}
	}
}

// TestEveryInternalPackageHasALayer fails when a package appears under
// internal/ without a line in packageLayer: its CPU time would silently
// land in "other".
func TestEveryInternalPackageHasALayer(t *testing.T) {
	entries, err := os.ReadDir("../internal")
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range cpuLayers {
		known[l] = true
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		layer, ok := packageLayer["p2/internal/"+e.Name()]
		if !ok {
			t.Errorf("p2/internal/%s is not assigned to a layer in packageLayer", e.Name())
		} else if !known[layer] {
			t.Errorf("p2/internal/%s is assigned to %q, which is not in cpuLayers", e.Name(), layer)
		}
	}
}

//go:noinline
func spinForProfile(d time.Duration) (n int) {
	for start := time.Now(); time.Since(start) < d; n++ {
	}
	return n
}

// TestProfileDecode takes a real CPU profile and checks the reader finds
// the function that burned the time, and charges it to this package.
func TestProfileDecode(t *testing.T) {
	prof, err := startCPUProfile()
	if err != nil {
		t.Fatal(err)
	}
	spinForProfile(300 * time.Millisecond)
	shares, err := prof.stop()
	if err != nil {
		t.Fatal(err)
	}
	samples, err := decodeProfile(prof.buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range samples {
		for _, fn := range s.stack {
			found = found || strings.HasSuffix(fn, ".spinForProfile")
		}
	}
	if !found {
		t.Fatalf("no sample of %d names spinForProfile", len(samples))
	}
	if shares["bench"] < 0.5 {
		t.Errorf("bench share %.2f of a profile that only spun in this package: %v", shares["bench"], shares)
	}
}
