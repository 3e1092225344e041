package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricValue is one measured value with its unit, as the driver's
// contract prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metricValue

func (m metricSet) set(name string, v float64, unit string) { m[name] = metricValue{v, unit} }

// runOpts are the arguments of one workload run.
type runOpts struct {
	seed    int64
	seconds float64
	spans   *spanRec // non-nil makes it the traced run
	// layerBudget is the measuring time of each micro-driver repetition
	// in the traced run.
	layerBudget float64
}

func (o runOpts) traced() bool { return o.spans != nil }

// result is the outcome of one run of one workload.
type result struct {
	Workload  string    `json:"workload"`
	Seed      int64     `json:"seed"`
	Traced    bool      `json:"traced"`
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Digest    string    `json:"sim_digest,omitempty"`
	Metrics   metricSet `json:"metrics"`
	Notes     []string  `json:"notes,omitempty"`
	Problems  []string  `json:"problems,omitempty"`
}

func newResult(workload string, o runOpts) *result {
	return &result{Workload: workload, Seed: o.seed, Traced: o.traced(), Correct: true, Metrics: metricSet{}}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// fail records a failed correctness check; the run then reports
// correct=false and the command exits non-zero.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// maxFailFrac is the share of operations that may time out, error or
// return a wrong result before the run counts as incorrect.
const maxFailFrac = 0.01

func (r *result) count(attempted, failed int) {
	r.Attempted += attempted
	r.Failed += failed
	if r.Attempted == 0 {
		r.fail("no operation was issued")
	} else if frac := float64(r.Failed) / float64(r.Attempted); frac > maxFailFrac {
		r.fail("fail_frac %.4f above %.2f (%d of %d ops)", frac, maxFailFrac, r.Failed, r.Attempted)
	}
}

// print writes every metric by name with its unit.
func (r *result) print(w io.Writer) {
	kind := "end-to-end"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "== %s  seed=%d  %s\n", r.Workload, r.Seed, kind)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-32s %16.6g %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	fmt.Fprintf(w, "  %-32s %16d of %d (fail_frac %.5f)\n", "failed", r.Failed, r.Attempted,
		ratio(float64(r.Failed), float64(r.Attempted)))
	if r.Digest != "" {
		fmt.Fprintf(w, "  %-32s %16s\n", "sim_digest", r.Digest)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  FAILED CHECK: %s\n", p)
	}
}

// contractLine is the one JSON object the driver reads from the last
// line of standard output.
func (r *result) contractLine() string {
	out, _ := json.Marshal(struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	return string(out)
}
