package val

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// TestInternTransparency pins the contract everything else leans on:
// InternBytes returns a string byte-equal to its argument, and repeated
// calls with equal bytes share one canonical backing array.
func TestInternTransparency(t *testing.T) {
	a := InternBytes([]byte{'c', 'h', 'o', 'r', 'd'})
	b := InternBytes([]byte{'c', 'h', 'o', 'r', 'd'})
	if a != "chord" || b != "chord" {
		t.Fatalf("InternBytes changed bytes: %q %q", a, b)
	}
	if unsafe.StringData(a) != unsafe.StringData(b) {
		t.Fatal("two InternBytes calls with equal bytes did not share backing storage")
	}
	c := InternBytes([]byte("chord"))
	if unsafe.StringData(c) != unsafe.StringData(a) {
		t.Fatal("a third call did not join the canonical copy")
	}
}

// TestInternLongStringsPassThrough: strings past internMaxLen bypass the
// table untouched — likely-unique payloads must not occupy slots.
func TestInternLongStringsPassThrough(t *testing.T) {
	long := make([]byte, internMaxLen+1)
	for i := range long {
		long[i] = 'x'
	}
	if got := InternBytes(long); got != string(long) {
		t.Fatal("long string mutated")
	}
	entries0, _ := InternStats()
	InternBytes(long)
	InternBytes(long)
	if entries1, _ := InternStats(); entries1 > entries0 {
		t.Fatalf("over-length strings entered the table: %d -> %d entries", entries0, entries1)
	}
}

// TestInternFlushStaysTransparent fills shards far past internShardCap
// with distinct runtime-built strings — the unbounded-symbol regime a
// long soft-state run produces — and checks that (a) occupancy stays
// bounded (flushing works, the interner cannot OOM a soak) and (b)
// strings re-presented after a flush still intern byte-equal: a flush
// costs sharing, never correctness.
func TestInternFlushStaysTransparent(t *testing.T) {
	const distinct = internShards * internShardCap * 2
	for i := 0; i < distinct; i++ {
		s := fmt.Sprintf("flush-probe-%d", i)
		if got := InternBytes([]byte(s)); got != s {
			t.Fatalf("InternBytes(%q) = %q", s, got)
		}
	}
	entries, bytes := InternStats()
	if entries > internShards*internShardCap {
		t.Fatalf("interner holds %d entries; cap is %d", entries, internShards*internShardCap)
	}
	if bytes <= 0 {
		t.Fatal("InternStats reports no bytes after a fill")
	}
	// Early strings were flushed out; re-interning must still be exact.
	for i := 0; i < 100; i++ {
		s := fmt.Sprintf("flush-probe-%d", i)
		if got := InternBytes([]byte(s)); got != s {
			t.Fatalf("post-flush InternBytes(%q) = %q", s, got)
		}
	}
}

// TestInternBytesHitAllocFree pins the hot path the tuple decoder
// depends on: re-presenting already-interned bytes allocates nothing —
// the map probe runs on the scratch buffer without materializing a
// string.
// A key over 32 bytes is the case to watch: the runtime converts a
// shorter []byte to a string in a stack buffer, a longer one on the
// heap, so only a probe that never converts stays free for both.
func TestInternBytesHitAllocFree(t *testing.T) {
	for _, key := range []string{"n42:p2-alloc-probe", "10.200.30.40:10000/chord-node-0000042"} {
		buf := []byte(key)
		InternBytes(buf) // admit it
		allocs := testing.AllocsPerRun(100, func() {
			if InternBytes(buf) == "" {
				t.Fatal("empty")
			}
		})
		if allocs != 0 {
			t.Fatalf("InternBytes allocated %.1f objects per already-interned probe of a %d-byte key", allocs, len(buf))
		}
	}
}

// TestInternShardMatchesModel drives one shard with random short keys,
// a third of them presented again, far enough to grow its table
// several times, reach internShardCap and flush, and half refill it. A
// model of the shard, the canonical string of each key since the last
// flush, predicts every result: byte-equal to the input, and the very
// backing array of the key's first admission until a flush drops it.
// InternStats must be exact at each check: every 500 steps and on both
// sides of the flush (reading every shard at every step is too slow).
func TestInternShardMatchesModel(t *testing.T) {
	const shard = 5
	sh := &interner[shard]
	sh.mu.Lock()
	sh.reset() // start from an empty shard; a flush is transparent
	sh.mu.Unlock()
	otherEntries, otherBytes := InternStats()

	rng := rand.New(rand.NewSource(46))
	model := map[string]string{}
	var modelBytes int64
	var keys []string // every key generated so far, flushed or not
	flushes := 0
	buf := make([]byte, 0, 16)
	for step := 0; flushes == 0 || len(model) < internShardCap/2; step++ {
		var key string
		if len(keys) > 0 && rng.Intn(3) == 0 {
			key = keys[rng.Intn(len(keys))]
		} else {
			for {
				buf = buf[:1+rng.Intn(12)]
				for i := range buf {
					buf[i] = "abcdefghijklmnop:.0123456789"[rng.Intn(28)]
				}
				if internHash(buf)&(internShards-1) == shard {
					break
				}
			}
			key = string(buf)
			keys = append(keys, key)
		}
		in := []byte(key)
		got := InternBytes(in)
		if got != key {
			t.Fatalf("step %d: InternBytes(%q) = %q", step, key, got)
		}
		check := step%500 == 0 || len(model) == internShardCap
		if c, ok := model[key]; ok {
			if unsafe.StringData(got) != unsafe.StringData(c) {
				t.Fatalf("step %d: %q came back in a new array before any flush", step, key)
			}
		} else {
			if len(model) >= internShardCap {
				model, modelBytes = map[string]string{}, 0
				flushes++
			}
			if unsafe.StringData(got) == unsafe.SliceData(in) {
				t.Fatalf("step %d: InternBytes kept the caller's buffer", step)
			}
			model[key] = got
			modelBytes += int64(len(key))
		}
		if !check && len(model) != 1 {
			continue
		}
		if entries, bytes := InternStats(); entries != otherEntries+len(model) || bytes != otherBytes+modelBytes {
			t.Fatalf("step %d: InternStats = %d entries, %d bytes; want %d, %d",
				step, entries, bytes, otherEntries+len(model), otherBytes+modelBytes)
		}
	}
}

// TestInternConcurrentAdmission: goroutines interning the same fresh
// keys at once, in different orders, while their emptied shards grow,
// all get every key back byte-equal and in one backing array. Run it
// under -race: shard loops intern concurrently.
func TestInternConcurrentAdmission(t *testing.T) {
	const workers, n = 4, 2999 // n prime, so each worker's order is a permutation
	// Empty every shard, so none flushes mid-test; a flush is transparent.
	for i := range interner {
		sh := &interner[i]
		sh.mu.Lock()
		sh.reset()
		sh.mu.Unlock()
	}
	got := make([][]string, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]string, n)
			for i := range n {
				k := (i*(2*w+1) + w) % n
				key := fmt.Sprintf("concurrent-%d", k)
				s := InternBytes([]byte(key))
				if s != key {
					t.Errorf("InternBytes(%q) = %q", key, s)
					return
				}
				out[k] = s
			}
			got[w] = out
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for k := range n {
			if got[w] == nil || unsafe.StringData(got[w][k]) != unsafe.StringData(got[0][k]) {
				t.Fatalf("worker %d got key %d in another array than worker 0", w, k)
			}
		}
	}
}

// TestInternedValuesIndistinguishable: a Value built from an interned
// string and one built from a private copy must compare, hash-key, and
// render identically — nothing observable may depend on interning.
func TestInternedValuesIndistinguishable(t *testing.T) {
	private := string([]byte("n7:p2"))
	a := Str(InternBytes([]byte(private)))
	b := Str(private)
	if a.Cmp(b) != 0 {
		t.Fatal("interned and private values compare unequal")
	}
	if a.String() != b.String() {
		t.Fatalf("renderings differ: %q %q", a.String(), b.String())
	}
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("Equal not symmetric across interning")
	}
}
