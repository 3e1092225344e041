package val

// The global symbol interner. A 10k-node deployment holds the same
// short strings — node addresses, relation names, event identifiers —
// in millions of places at once: every finger-table row on every node
// carries its successor's address, every rendered index key embeds the
// addresses of the fields it was built from, and every tuple decoded
// off the wire used to allocate a private copy of each of them. The
// interner deduplicates those copies into one canonical backing array
// per distinct byte sequence, so a tuple field, its table row, and the
// rendered keys indexing it all share storage.
//
// Design constraints, in order:
//
//   - Concurrency: tuples are decoded on every shard loop (and every
//     UDP node loop) at once, so the table is sharded by hash with one
//     RWMutex per shard; the steady state (string already present) is
//     a read-lock and a map probe.
//   - Boundedness: soft state means unbounded distinct strings over a
//     long run (event IDs, timestamps rendered to strings). Interning
//     is therefore best-effort: only strings up to internMaxLen enter,
//     and a shard that reaches internShardCap entries is flushed
//     wholesale. A flushed string is not "lost" — subsequent
//     duplicates simply stop sharing until it is re-admitted.
//   - Transparency: InternBytes(b) returns a string byte-equal to b, so
//     interned and uninterned values compare, hash, render, and
//     marshal identically. Nothing observable depends on interning;
//     the regression suite pins this across table replace/expire/evict.

import "sync"

const (
	internShardBits = 6
	internShards    = 1 << internShardBits // 64
	// internMaxLen bounds admitted strings: addresses, relation names,
	// and rendered single-field keys are far shorter; anything longer
	// is likely unique (large payloads) and not worth a table slot.
	internMaxLen = 64
	// internShardCap bounds one shard's table; at 64 shards the whole
	// interner holds at most ~1M entries before shards start flushing.
	internShardCap = 1 << 14
)

type internShard struct {
	mu sync.RWMutex
	m  map[string]string
}

var interner [internShards]internShard

func init() {
	for i := range interner {
		interner[i].m = make(map[string]string)
	}
}

// InternBytes returns the canonical copy of b's bytes: byte-equal to b,
// shared with every other caller that presented the same bytes. Strings
// too long for the table return as a private copy. The common hit path
// probes the shard map via map[string(b)] — which Go compiles without
// materializing a string — so re-rendering an already-interned key
// allocates nothing. Only a genuinely new byte sequence is copied.
func InternBytes(b []byte) string {
	if len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := uint32(2166136261) // FNV-1a, folded to a shard index
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	sh := &interner[h&(internShards-1)]
	sh.mu.RLock()
	c, ok := sh.m[string(b)]
	sh.mu.RUnlock()
	if ok {
		return c
	}
	s := string(b)
	sh.mu.Lock()
	if c, ok = sh.m[s]; !ok {
		if len(sh.m) >= internShardCap {
			sh.m = make(map[string]string)
		}
		sh.m[s] = s
		c = s
	}
	sh.mu.Unlock()
	return c
}

// InternStats reports the interner's current occupancy — the
// MeasureFootprint report includes it so the memory anatomy of a big
// run is visible.
func InternStats() (entries int, bytes int64) {
	for i := range interner {
		sh := &interner[i]
		sh.mu.RLock()
		entries += len(sh.m)
		for s := range sh.m {
			bytes += int64(len(s))
		}
		sh.mu.RUnlock()
	}
	return entries, bytes
}
