package main

// bench -compare a.json b.json: do two sets of runs agree? For every
// workload and end-to-end metric it prints both medians, their ratio
// (b ÷ a, with a as the base), the bound BENCHMARK.json fixes, and a
// verdict.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchmarkSpec is the part of BENCHMARK.json this program reads. The
// file is the single place bounds are fixed.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(path string) (*benchmarkSpec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// values collects one metric over a report's untraced runs of one
// workload.
func (rep *report) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range rep.Runs {
		if r.Workload != workload || r.Traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// verdict judges b against a for one metric: "worse" when b's median is
// worse than a's by more than the bound, "unresolved" when either side's
// own runs spread wider than the bound (the comparison cannot tell),
// "ok" otherwise. ratio is b's median over a's.
func verdict(spec metricSpec, a, b []float64) (ratio float64, status string) {
	ma, mb := median(a), median(b)
	ratio = mb / ma
	for _, side := range [][]float64{a, b} {
		if spread, ok := quartileSpread(side); ok && spread > spec.Bound {
			return ratio, "unresolved"
		}
	}
	worsening := ratio - 1
	if spec.Better == "higher" {
		worsening = 1 - ratio
	}
	if worsening > spec.Bound {
		return ratio, "worse"
	}
	return ratio, "ok"
}

// compareReports prints the comparison and returns the exit code: 1
// when any metric is worse, 2 when the inputs cannot be read.
func compareReports(w io.Writer, aPath, bPath string) int {
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: -compare reads the bounds from BENCHMARK.json in the current directory: %v\n", err)
		return 2
	}
	a, err := loadReport(aPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	b, err := loadReport(bPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(w, "a: %s  commit %s  num_cpu=%d gomaxprocs=%d\n", aPath, a.Env.Commit, a.Env.NumCPU, a.Env.GOMAXPROCS)
	fmt.Fprintf(w, "b: %s  commit %s  num_cpu=%d gomaxprocs=%d\n", bPath, b.Env.Commit, b.Env.NumCPU, b.Env.GOMAXPROCS)
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a (median)", "b (median)", "b/a", "bound", "verdict")
	code := 0
	for _, wl := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			va, vb := a.values(wl.Name, ms.Name), b.values(wl.Name, ms.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %7s  missing (a has %d runs, b has %d)\n",
					wl.Name, ms.Name, "-", "-", "-", "-", len(va), len(vb))
				continue
			}
			ratio, status := verdict(ms, va, vb)
			if status == "worse" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %9.4f %6.1f%%  %s (%s is better; %d and %d runs)\n",
				wl.Name, ms.Name, median(va), median(vb), ratio, ms.Bound*100, status, ms.Better, len(va), len(vb))
		}
		if da, db := a.digests(wl.Name), b.digests(wl.Name); da != "" && db != "" {
			same := "identical"
			if da != db {
				same = "DIFFERENT (expected only across commits or seeds)"
			}
			fmt.Fprintf(w, "%-16s %-18s %14s %14s  %s\n", wl.Name, "sim_digest", da, db, same)
		}
	}
	return code
}

// digests returns the sim_digest of a workload's untraced runs when
// they all agree, and every distinct one joined otherwise.
func (rep *report) digests(workload string) string {
	seen := map[string]bool{}
	out := ""
	for _, r := range rep.Runs {
		if r.Workload == workload && !r.Traced && r.Digest != "" && !seen[r.Digest] {
			seen[r.Digest] = true
			if out != "" {
				out += ","
			}
			out += r.Digest
		}
	}
	return out
}
