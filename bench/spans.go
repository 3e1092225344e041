package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer: its name, its
// start and end as offsets from the recorder's creation, and the index
// of the span that caused it (-1 for a root).
type span struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"`
}

// spanRec keeps spans in memory until the run ends. A nil recorder
// records nothing, so the untraced run pays one nil check per call.
type spanRec struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanRec() *spanRec { return &spanRec{t0: time.Now()} }

// start opens a span and returns its index, to be passed to end and to
// children as their parent.
func (r *spanRec) start(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{Name: name, Start: now, Parent: parent})
	return len(r.spans) - 1
}

func (r *spanRec) end(i int) {
	if r == nil {
		return
	}
	now := time.Since(r.t0).Seconds()
	r.mu.Lock()
	r.spans[i].End = now
	r.mu.Unlock()
}

// durations returns the length in seconds of every closed span with the
// given name.
func (r *spanRec) durations(name string) []float64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, s := range r.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// write stores the spans as one JSON array.
func (r *spanRec) write(path string) error {
	r.mu.Lock()
	data, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
