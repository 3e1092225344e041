package eventloop

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestEventHeapDuplicateTimes drives the heap directly with many equal
// times: interleaved pushes and pops must always pop the (at, seq)
// minimum of what is queued.
func TestEventHeapDuplicateTimes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h eventHeap[int]
	var ref []heapEntry[int]
	less := func(a, b heapEntry[int]) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	}
	var seq uint64
	for step := 0; step < 5000; step++ {
		if len(h) == 0 || rng.Intn(3) > 0 {
			seq++
			at := float64(rng.Intn(4)) // four distinct times: most pushes collide
			h.push(at, seq, int(seq))
			ref = append(ref, heapEntry[int]{at: at, seq: seq, ev: int(seq)})
			continue
		}
		slices.SortFunc(ref, less)
		if got, want := h[0], ref[0]; got != want {
			t.Fatalf("step %d: heap top %+v, want %+v", step, got, want)
		}
		h.pop()
		ref = ref[1:]
	}
	slices.SortFunc(ref, less)
	for i, want := range ref {
		if h[0] != want {
			t.Fatalf("drain %d: heap top %+v, want %+v", i, h[0], want)
		}
		h.pop()
	}
	if len(h) != 0 {
		t.Fatalf("%d entries left after draining", len(h))
	}
}

// refEvent is one scheduled callback in orderRef's model.
type refEvent struct {
	at       float64
	seq      uint64
	id       int
	canceled bool
	fired    bool
}

// orderRef is the reference model of Sim's firing order: every
// scheduling call takes the next sequence number, Defer is a timer due
// at the current instant (the DPC rule: it runs after everything
// already scheduled for now, before anything scheduled later), times in
// the past clamp to now, and the next event is the (at, seq) minimum of
// what is live.
type orderRef struct {
	now     float64
	until   float64 // horizon of the Run in progress
	seq     uint64
	pending []*refEvent // sorted by (at, seq)
}

func (r *orderRef) add(at float64, id int) *refEvent {
	if at < r.now {
		at = r.now
	}
	r.seq++
	e := &refEvent{at: at, seq: r.seq, id: id}
	i, _ := slices.BinarySearchFunc(r.pending, e, func(a, b *refEvent) int {
		if c := cmp.Compare(a.at, b.at); c != 0 {
			return c
		}
		return cmp.Compare(a.seq, b.seq)
	})
	r.pending = slices.Insert(r.pending, i, e)
	return e
}

// live counts the scheduled events that have not fired or been canceled.
func (r *orderRef) live() int {
	n := 0
	for _, e := range r.pending {
		if !e.canceled {
			n++
		}
	}
	return n
}

// next pops the earliest live event due at or before limit.
func (r *orderRef) next(limit float64) *refEvent {
	for len(r.pending) > 0 {
		e := r.pending[0]
		if e.canceled {
			r.pending = r.pending[1:]
			continue
		}
		if e.at > limit {
			return nil
		}
		r.pending = r.pending[1:]
		r.now, e.fired = e.at, true
		return e
	}
	return nil
}

// TestSimOrderMatchesReference is a seeded randomized check of the
// whole scheduling surface — At, After, AfterFree, AtFree and Defer on
// colliding times, with Cancel and CancelFree — against orderRef. Each
// fired callback checks that it is the event the reference fires next,
// at the reference's time, and schedules or cancels more.
func TestSimOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := NewSim()
		ref := &orderRef{}
		type handle struct {
			tm *Timer
			e  *refEvent
		}
		var handles []handle
		ids := 0
		fired := 0
		var schedule func()
		fire := func(id int) func() {
			return func() {
				want := ref.next(ref.until)
				if want == nil || want.id != id || s.Now() != want.at {
					t.Fatalf("seed %d: fired event %d at %v, reference fires %+v", seed, id, s.Now(), want)
				}
				fired++
				for k := rng.Intn(3); k > 0; k-- {
					schedule()
				}
			}
		}
		// Times on a quarter-second grid, absolute ones partly in the
		// past, so equal times and clamping are the common case.
		rel := func() float64 { return float64(rng.Intn(4)) * 0.25 }
		abs := func() float64 { return float64(int(s.Now())) + float64(rng.Intn(8))*0.25 }
		schedule = func() {
			ids++
			id := ids
			switch op := rng.Intn(8); op {
			case 0:
				at := abs()
				handles = append(handles, handle{s.At(at, fire(id)), ref.add(at, id)})
			case 1:
				d := rel()
				handles = append(handles, handle{s.After(d, fire(id)), ref.add(ref.now+d, id)})
			case 2:
				d := rel()
				s.AfterFree(d, fire(id))
				ref.add(ref.now+d, id)
			case 3:
				at := abs()
				s.AtFree(at, fire(id))
				ref.add(at, id)
			case 4:
				s.Defer(fire(id))
				ref.add(ref.now, id)
			default:
				if len(handles) == 0 {
					return
				}
				// Cancel a random handle, fired or not: canceling a fired
				// timer is a no-op on both sides.
				i := rng.Intn(len(handles))
				h := handles[i]
				if !h.e.fired {
					h.e.canceled = true
				}
				if op == 5 {
					h.tm.Cancel()
				} else {
					// CancelFree releases the handle: never touch it again.
					h.tm.CancelFree()
					handles = slices.Delete(handles, i, i+1)
				}
			}
		}
		for until := 0.5; until <= 20; until += 0.5 {
			ref.until = until
			s.Run(until)
			if e := ref.next(until); e != nil {
				t.Fatalf("seed %d: Run(%v) returned with event %+v due", seed, until, e)
			}
			ref.now = until
			if s.Now() != until {
				t.Fatalf("seed %d: clock %v after Run(%v)", seed, s.Now(), until)
			}
			if s.Pending() != ref.live() {
				t.Fatalf("seed %d: Pending() = %d after Run(%v), reference has %d live", seed, s.Pending(), until, ref.live())
			}
			for ref.live() < 20 {
				schedule()
			}
		}
		if fired < 100 {
			t.Fatalf("seed %d: only %d events fired; the check exercised too little", seed, fired)
		}
	}
}
