package transport

import (
	"math/rand"
	"sort"
	"testing"

	"p2/internal/tuple"
)

// recvModel is the receive half's contract as sets: marked holds every
// seq a delivered frame carried, skip the highest abandoned seq a frame
// declared. cum is the longest prefix of the sequence space that is
// marked or abandoned, and a seq is seen when it lies in that prefix or
// was marked.
type recvModel struct {
	marked map[uint64]bool
	skip   uint64
}

func (m *recvModel) cum() uint64 {
	c := m.skip
	for m.marked[c+1] {
		c++
	}
	return c
}

func (m *recvModel) seen(s uint64) bool { return s <= m.cum() || m.marked[s] }

// push returns the seqs a frame delivers: all of them when its first
// seq was not yet seen, none otherwise (frames retransmit whole).
func (m *recvModel) push(skip, first uint64, n int) []uint64 {
	if skip < first && skip > m.skip {
		m.skip = skip
	}
	if m.seen(first) {
		return nil
	}
	var out []uint64
	for s := first; s < first+uint64(n); s++ {
		m.marked[s] = true
		out = append(out, s)
	}
	return out
}

// TestRecvStateMatchesModel drives the receive chain with random frame
// schedules — in order, reordered, duplicated, and lossy with the
// sender's skip declarations — and checks cum, seen and delivery after
// every frame against recvModel. The sender cuts seqs 1..n into frames
// once and retransmits a frame whole, as Retry does, so a seq always
// rides the same frame and no seq may be delivered twice.
func TestRecvStateMatchesModel(t *testing.T) {
	modes := []struct {
		name               string
		jitter, dup, loss  float64
		skips, wantAllOnce bool
	}{
		{name: "in-order", wantAllOnce: true},
		{name: "reordered", jitter: 4, wantAllOnce: true},
		{name: "duplicated", jitter: 4, dup: 0.4, wantAllOnce: true},
		{name: "skips", jitter: 4, dup: 0.2, loss: 0.15, skips: true},
	}
	rng := rand.New(rand.NewSource(45))
	for _, mode := range modes {
		for trial := 0; trial < 200; trial++ {
			type frame struct {
				first uint64
				n     int
			}
			var frames []frame
			seqs := uint64(0)
			for seqs < 40 {
				n := 1 + rng.Intn(3)
				frames = append(frames, frame{seqs + 1, n})
				seqs += uint64(n)
			}
			type arrival struct {
				f   frame
				key float64
			}
			var sched []arrival
			for i, f := range frames {
				copies := 1
				if rng.Float64() < mode.loss {
					copies = 0
				}
				for copies > 0 && rng.Float64() < mode.dup {
					copies++
				}
				for c := 0; c < copies; c++ {
					sched = append(sched, arrival{f, float64(i) + mode.jitter*rng.Float64()})
				}
			}
			sort.SliceStable(sched, func(i, j int) bool { return sched[i].key < sched[j].key })

			r := newRig(t, 0, DefaultConfig())
			m := &recvModel{marked: map[uint64]bool{}}
			var want []int64
			for _, a := range sched {
				var skip uint64
				if mode.skips && rng.Intn(3) == 0 {
					skip = a.f.first - 1 - uint64(rng.Intn(int(min(a.f.first, 6))))
				}
				tuples := make([]*tuple.Tuple, a.f.n)
				for i := range tuples {
					tuples[i] = tp(int64(a.f.first) + int64(i))
				}
				r.b.Deliver("a", mkDataFrame(0, 0, 0, skip, a.f.first, tuples...))
				for _, s := range m.push(skip, a.f.first, a.f.n) {
					want = append(want, int64(s))
				}
				rs := &r.b.peers["a"].rcv
				if rs.cum != m.cum() {
					t.Fatalf("%s trial %d: after frame %d+%d (skip %d) cum is %d, model %d", mode.name, trial, a.f.first, a.f.n, skip, rs.cum, m.cum())
				}
				for s := uint64(1); s <= seqs+3; s++ {
					if rs.seen(s) != m.seen(s) {
						t.Fatalf("%s trial %d: seen(%d) is %v, model %v", mode.name, trial, s, rs.seen(s), m.seen(s))
					}
				}
			}
			if len(r.got) != len(want) {
				t.Fatalf("%s trial %d: delivered %v, model %v", mode.name, trial, r.got, want)
			}
			once := map[int64]bool{}
			for i, s := range r.got {
				if s != want[i] {
					t.Fatalf("%s trial %d: delivered %v, model %v", mode.name, trial, r.got, want)
				}
				if once[s] {
					t.Fatalf("%s trial %d: seq %d delivered twice: %v", mode.name, trial, s, r.got)
				}
				once[s] = true
			}
			if mode.wantAllOnce && (uint64(len(once)) != seqs || r.b.peers["a"].rcv.cum != seqs) {
				t.Fatalf("%s trial %d: %d of %d seqs delivered, cum %d", mode.name, trial, len(once), seqs, r.b.peers["a"].rcv.cum)
			}
		}
	}
}

// TestInOrderFramesLeaveNoOutOfOrderSet pins the in-order path: frames
// that each continue cum allocate nothing and never make the
// out-of-order set.
func TestInOrderFramesLeaveNoOutOfOrderSet(t *testing.T) {
	rs := &recvState{}
	allocs := testing.AllocsPerRun(200, func() {
		first := rs.cum + 1
		if rs.seen(first) {
			t.Fatal("a fresh seq reads as seen")
		}
		rs.mark(first, 3)
	})
	if allocs != 0 || rs.high != nil || rs.cum != 3*201 {
		t.Fatalf("in-order frames allocated %.1f per frame, set %v, cum %d", allocs, rs.high, rs.cum)
	}
}
