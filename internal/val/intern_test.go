package val

import (
	"fmt"
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
func TestInternBytesHitAllocFree(t *testing.T) {
	buf := []byte("n42:p2-alloc-probe")
	InternBytes(buf) // admit it
	allocs := testing.AllocsPerRun(100, func() {
		if InternBytes(buf) == "" {
			t.Fatal("empty")
		}
	})
	if allocs != 0 {
		t.Fatalf("InternBytes allocated %.1f objects per already-interned probe", allocs)
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
