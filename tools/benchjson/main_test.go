package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func writeBaseline(t *testing.T, results []Result) string {
	t.Helper()
	doc := Doc{Results: results}
	raw, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func res(name string, eventsSec float64) Result {
	return Result{Name: name, Iters: 1, Metrics: map[string]float64{"events/sec": eventsSec}}
}

func TestCompareBaselinePasses(t *testing.T) {
	base := writeBaseline(t, []Result{res("BenchmarkA", 1000), res("BenchmarkB", 500)})
	doc := &Doc{Results: []Result{res("BenchmarkA", 950), res("BenchmarkB", 600)}}
	if !compareBaseline(doc, base, 0.10) {
		t.Fatal("a 5% dip and an improvement must pass a 10% gate")
	}
}

func TestCompareBaselineFailsOnRegression(t *testing.T) {
	base := writeBaseline(t, []Result{res("BenchmarkA", 1000)})
	doc := &Doc{Results: []Result{res("BenchmarkA", 850)}}
	if compareBaseline(doc, base, 0.10) {
		t.Fatal("a 15% events/sec regression must fail a 10% gate")
	}
}

func TestCompareBaselineSkipsUnmatchedNames(t *testing.T) {
	// Renamed/new benchmarks warn and skip — only matching names gate.
	base := writeBaseline(t, []Result{res("BenchmarkGone", 1000), res("BenchmarkA", 100)})
	doc := &Doc{Results: []Result{res("BenchmarkNew", 1), res("BenchmarkA", 99)}}
	if !compareBaseline(doc, base, 0.10) {
		t.Fatal("unmatched names must not fail the comparison")
	}
}

func TestCompareBaselineMissingFile(t *testing.T) {
	doc := &Doc{Results: []Result{res("BenchmarkA", 1)}}
	if compareBaseline(doc, filepath.Join(t.TempDir(), "nope.json"), 0.10) {
		t.Fatal("unreadable baseline must fail, not silently pass")
	}
}

func pres(name string, metrics map[string]float64) Result {
	return Result{Name: name, Iters: 1, Metrics: metrics}
}

func TestCompareBaselineFailsOnPercentileRegression(t *testing.T) {
	// p99-ms is lower-is-better: rising 15% past baseline fails a 10% gate.
	base := writeBaseline(t, []Result{pres("BenchmarkLat", map[string]float64{"p99-ms": 100})})
	doc := &Doc{Results: []Result{pres("BenchmarkLat", map[string]float64{"p99-ms": 115})}}
	if compareBaseline(doc, base, 0.10) {
		t.Fatal("a 15% p99 latency increase must fail a 10% gate")
	}
}

func TestCompareBaselinePassesOnPercentileImprovement(t *testing.T) {
	base := writeBaseline(t, []Result{pres("BenchmarkLat", map[string]float64{
		"p99-ms": 100, "kB/node": 800})})
	doc := &Doc{Results: []Result{pres("BenchmarkLat", map[string]float64{
		"p99-ms": 40, "kB/node": 300})}}
	if !compareBaseline(doc, base, 0.10) {
		t.Fatal("large improvements on lower-is-better metrics must pass")
	}
}

func TestCompareBaselineWarnsNotFailsOnAbsentMetric(t *testing.T) {
	// The baseline predates percentile reporting: the new p999-ms metric
	// has no baseline value, so it warns and skips while events/sec
	// still gates.
	base := writeBaseline(t, []Result{pres("BenchmarkMix", map[string]float64{"events/sec": 1000})})
	doc := &Doc{Results: []Result{pres("BenchmarkMix", map[string]float64{
		"events/sec": 980, "p999-ms": 42})}}
	if !compareBaseline(doc, base, 0.10) {
		t.Fatal("a metric absent from the baseline must warn, not fail")
	}
}

func TestCompareBaselineMixedDirections(t *testing.T) {
	// events/sec improved but kB/node regressed: the gate must catch the
	// lower-is-better regression even when the higher-is-better metric
	// looks great.
	base := writeBaseline(t, []Result{pres("BenchmarkMem", map[string]float64{
		"events/sec": 1000, "kB/node": 100})})
	doc := &Doc{Results: []Result{pres("BenchmarkMem", map[string]float64{
		"events/sec": 2000, "kB/node": 150})}}
	if compareBaseline(doc, base, 0.10) {
		t.Fatal("a kB/node regression must fail even when events/sec improves")
	}
}

func TestCompareBaselineIgnoresNonEventMetrics(t *testing.T) {
	base := writeBaseline(t, []Result{{Name: "BenchmarkC", Iters: 1,
		Metrics: map[string]float64{"ns/op": 100}}})
	doc := &Doc{Results: []Result{{Name: "BenchmarkC", Iters: 1,
		Metrics: map[string]float64{"ns/op": 900}}}}
	if !compareBaseline(doc, base, 0.10) {
		t.Fatal("benchmarks without events/sec are outside the gate")
	}
}

// events/sec/core means one core per shard: it is derived only when
// the run recorded its cores and had at least as many as shards.
func TestFinalizePerCore(t *testing.T) {
	for _, c := range []struct {
		name    string
		metrics map[string]float64
		want    float64 // 0: no per-core figure
	}{
		{"BenchmarkSimulatedSecond128/shards=2-8", map[string]float64{"events/sec": 300, "num_cpu": 8, "gomaxprocs": 8}, 150},
		{"BenchmarkSimulatedSecond128/shards=4-2", map[string]float64{"events/sec": 300, "num_cpu": 2, "gomaxprocs": 2}, 0},
		{"BenchmarkSimulatedSecond128/shards=4-2", map[string]float64{"events/sec": 300, "num_cpu": 8, "gomaxprocs": 2}, 0},
		{"BenchmarkSimulatedSecond128/shards=4-8", map[string]float64{"events/sec": 300, "events/sec/core": 75}, 0}, // cores unknown
		{"BenchmarkX", map[string]float64{"events/sec": 300, "shards": 1, "num_cpu": 2, "gomaxprocs": 2}, 300},
	} {
		r := Result{Name: c.name, Metrics: c.metrics}
		r.finalize()
		if got, ok := r.Metrics["events/sec/core"]; got != c.want || ok != (c.want != 0) {
			t.Errorf("%s %v: events/sec/core = %v (present %v), want %v", c.name, c.metrics, got, ok, c.want)
		}
	}
}
