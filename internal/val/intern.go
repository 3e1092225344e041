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
//     a read-lock and a probe.
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
//   - Footprint: a shard is a set, not a map from a string to itself,
//     so it is one open-addressed []string, at most 3/4 full, probed
//     linearly from the hash InternBytes computes anyway: a slot is 16
//     bytes on 64-bit, where a map[string]string slot is 32 and a
//     control byte. The empty string never enters (InternBytes returns
//     it directly), so it marks a free slot.

import (
	"sync"
	"unsafe"
)

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
	// internMinSlots is a shard's table size at start and after a flush.
	internMinSlots = 16
)

// internShard is one shard's set: slots holds each admitted string at
// the first free slot at or after hash>>internShardBits (mod its
// length, a power of two), and n counts them.
type internShard struct {
	mu    sync.RWMutex
	slots []string
	n     int
}

var interner [internShards]internShard

func init() {
	for i := range interner {
		interner[i].reset()
	}
}

// reset empties the shard: the flush, and its state at start.
func (sh *internShard) reset() {
	sh.slots, sh.n = make([]string, internMinSlots), 0
}

// internHash is the FNV-1a hash of b: its low internShardBits pick the
// shard and the rest the home slot within it.
func internHash(b []byte) uint32 {
	h := uint32(2166136261)
	for _, c := range b {
		h ^= uint32(c)
		h *= 16777619
	}
	return h
}

// find returns the slot holding b, or the free slot where b would go.
// The caller holds sh.mu.
func (sh *internShard) find(b []byte, h uint32) int {
	mask := len(sh.slots) - 1
	i := int(h>>internShardBits) & mask
	for sh.slots[i] != "" && sh.slots[i] != string(b) {
		i = (i + 1) & mask
	}
	return i
}

// add admits s, a copy of b that is not present, under b's hash h: it
// flushes a full shard and doubles a table that would pass 3/4 load.
// The caller holds sh.mu for writing.
func (sh *internShard) add(s string, b []byte, h uint32) {
	switch {
	case sh.n >= internShardCap:
		sh.reset()
	case 4*(sh.n+1) > 3*len(sh.slots):
		old := sh.slots
		sh.slots = make([]string, 2*len(old))
		for _, o := range old {
			if o != "" {
				ob := unsafe.Slice(unsafe.StringData(o), len(o)) // read only
				sh.slots[sh.find(ob, internHash(ob))] = o
			}
		}
	}
	sh.slots[sh.find(b, h)] = s
	sh.n++
}

// InternBytes returns the canonical copy of b's bytes: byte-equal to b,
// shared with every other caller that presented the same bytes. Strings
// too long for the table return as a private copy. The common hit path
// compares slots against string(b) — which Go compiles without
// materializing a string — so re-rendering an already-interned key
// allocates nothing. Only a genuinely new byte sequence is copied.
func InternBytes(b []byte) string {
	if len(b) == 0 || len(b) > internMaxLen {
		return string(b)
	}
	h := internHash(b)
	sh := &interner[h&(internShards-1)]
	sh.mu.RLock()
	c := sh.slots[sh.find(b, h)]
	sh.mu.RUnlock()
	if c != "" {
		return c
	}
	s := string(b)
	sh.mu.Lock()
	if c = sh.slots[sh.find(b, h)]; c == "" {
		sh.add(s, b, h)
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
		entries += sh.n
		for _, s := range sh.slots {
			bytes += int64(len(s))
		}
		sh.mu.RUnlock()
	}
	return entries, bytes
}
