// Package table implements P2's soft-state tables (§3.2).
//
// A Table is a queue of tuples with a primary key, an optional lifetime
// (tuples expire TTL seconds after their last refresh) and an optional
// maximum size (oldest tuples are evicted FIFO when full) — the two
// constraints OverLog's materialize() directive declares. Secondary
// in-memory indices provide the equality lookups that stream×table
// equijoins perform.
//
// Tables are node-local and single-threaded: the run-to-completion event
// loop means no locking is needed, mirroring the paper's libasync-based
// design. Insert and delete listeners let the planner turn table deltas
// into dataflow events and keep continuous aggregates current.
//
// The probe path is allocation-free: every row caches its rendered
// primary and per-index key strings at add time (removal and
// replacement never re-render), and equijoins resolve an *Index handle
// once at wiring time, then probe it with Index.Each against a scratch
// key buffer — no signature strings, no result slices.
//
// Row storage is compact: rows carry intrusive insertion-order links
// (no container/list element per row), are allocated from per-table
// blocks and recycled through a free list (steady-state churn — the
// constant replace/expire/re-derive cycle of soft state — allocates no
// row structs), and every rendered key is interned through the global
// symbol table, so the thousands of rows across a deployment that
// embed the same address share one backing array.
package table

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"p2/internal/eventloop"
	"p2/internal/tuple"
	"p2/internal/val"
)

// Infinity marks an unbounded lifetime or size in a table declaration.
const Infinity = math.MaxFloat64

// Row blocks start small — most tables hold a handful of rows (a
// Chord node's successor list is 4, its predecessor 1) — and double up
// to rowBlockMax as the table proves it churns.
const (
	rowBlockMin = 8
	rowBlockMax = 64
)

// Table is a soft-state relation. Not safe for concurrent use.
type Table struct {
	name    string
	ttl     float64 // seconds; Infinity for immortal tuples
	maxSize int     // 0 or negative = unbounded
	pk      []int   // primary key field positions (0-based)
	clock   eventloop.Clock

	rows       map[string]*row // primary key → row
	head, tail *row            // insertion order, oldest first (intrusive)
	free       *row            // recycled rows, linked through row.next
	blockLen   int             // next arena block size
	indices    []*Index        // creation order; row.ixKeys is parallel
	bySig      map[string]*Index

	onInsert  []func(*tuple.Tuple)
	onDelete  []func(*tuple.Tuple)
	onReplace []func(*tuple.Tuple)
	inserting *tuple.Tuple

	// probing counts in-flight Index.Each visits. While positive,
	// removals tombstone bucket slots instead of compacting them, so a
	// probe never visits a row twice; buckets compact when it drops to
	// zero.
	probing int

	scratch []byte // probe/insert key render buffer

	// version counts content mutations (row added or removed). Pure
	// refreshes do not bump it: they change no bucket, so a probe
	// result cached at version v is still exact after any number of
	// refreshes. A distinct fold's row cache keys on this.
	version uint64

	stats Stats
}

// Stats counts table activity since creation — the raw material of the
// sysTable introspection relation. Silent primary-key replacement
// counts as one insert (not a delete): the old row was displaced, not
// retracted.
type Stats struct {
	Inserts   int64 // delta-producing stores
	Deletes   int64 // removals: explicit delete, FIFO eviction, TTL expiry
	Refreshes int64 // identical re-insertions that only renewed a TTL
}

// row is a resident tuple plus its cached keys and intrusive links.
// Rows are arena-allocated and recycled: a *row is only valid while the
// row is resident, and nothing outside this package ever holds one.
type row struct {
	t          *tuple.Tuple
	expires    float64
	prev, next *row     // insertion-order links; next doubles as the free-list link
	pk         string   // rendered primary key, cached (interned) at add time
	ixKeys     []string // rendered per-index keys, parallel to Table.indices
}

// Index is a secondary equality index over a fixed set of field
// positions — the handle equijoins resolve once at wiring time and
// probe on every event. Obtained from Table.EnsureIndex.
type Index struct {
	tb        *Table
	positions []int
	ord       int // position in Table.indices; row.ixKeys[ord] is this index's key
	m         map[string][]*row
	dirty     []string // bucket keys tombstoned while a probe was live
	appends   uint64   // bumped per bucket append; live probes re-read on change
}

// New creates a table. ttl is the tuple lifetime in seconds (use
// Infinity for no expiry); maxSize bounds the row count (<= 0 for
// unbounded); pk lists the 0-based field positions of the primary key.
// The clock supplies "now" for expiry decisions.
func New(name string, ttl float64, maxSize int, pk []int, clock eventloop.Clock) *Table {
	if ttl <= 0 {
		ttl = Infinity
	}
	return &Table{
		name:    name,
		ttl:     ttl,
		maxSize: maxSize,
		pk:      append([]int(nil), pk...),
		clock:   clock,
		rows:    make(map[string]*row),
		bySig:   make(map[string]*Index),
	}
}

// Name returns the relation name.
func (tb *Table) Name() string { return tb.name }

// TTL returns the configured lifetime in seconds.
func (tb *Table) TTL() float64 { return tb.ttl }

// MaxSize returns the configured size bound (0 = unbounded).
func (tb *Table) MaxSize() int { return tb.maxSize }

// PrimaryKey returns the primary key positions.
func (tb *Table) PrimaryKey() []int { return tb.pk }

// Stats returns a copy of the table's activity counters.
func (tb *Table) Stats() Stats { return tb.stats }

// Len returns the number of live rows, expiring stale ones first.
func (tb *Table) Len() int {
	tb.Expire()
	return len(tb.rows)
}

// Version returns the content-mutation counter: it advances whenever a
// row is added or removed and never on pure refreshes. Two reads that
// observe the same version are guaranteed to see identical contents.
func (tb *Table) Version() uint64 { return tb.version }

// OnInsert registers fn to run whenever a genuinely new or changed
// tuple is stored. Refreshes of identical tuples do not fire it — this
// is what keeps recursive rules from deriving forever, matching
// fixpoint semantics.
func (tb *Table) OnInsert(fn func(*tuple.Tuple)) { tb.onInsert = append(tb.onInsert, fn) }

// OnDelete registers fn to run whenever a tuple leaves the table:
// explicit deletion, FIFO eviction, or TTL expiry.
func (tb *Table) OnDelete(fn func(*tuple.Tuple)) { tb.onDelete = append(tb.onDelete, fn) }

// OnReplace registers fn to run with the row displaced by a primary-key
// replacement. It fires immediately before the replacement's OnInsert
// callbacks — always as a pair — so incremental listeners (continuous
// aggregates) can retract the old row's contribution. Displacement is
// not a delete: the delete listeners and counter are untouched.
func (tb *Table) OnReplace(fn func(*tuple.Tuple)) { tb.onReplace = append(tb.onReplace, fn) }

// Inserting returns the tuple an in-progress Insert has stored but not
// yet announced through OnInsert — non-nil only inside delete listeners
// fired by that insert's FIFO eviction. Incremental listeners use it to
// defer their reaction to the insert's own callback, so one table
// mutation produces one notification.
func (tb *Table) Inserting() *tuple.Tuple { return tb.inserting }

// InsertResult describes what an Insert did.
type InsertResult struct {
	Stored   bool         // tuple is now in the table
	Delta    bool         // the table's contents changed (fire delta rules)
	Replaced *tuple.Tuple // previous row displaced by a primary-key match
}

// Insert stores t, applying primary-key replacement, FIFO size
// eviction, and TTL stamping. Arity must match prior rows (enforced by
// the planner; here we only guard the key positions).
//
// The primary key is rendered exactly once, into a scratch buffer; pure
// refreshes (the steady state of periodic re-derivation) allocate
// nothing, and replacements reuse the displaced row's cached key
// string.
func (tb *Table) Insert(t *tuple.Tuple) InsertResult {
	tb.Expire()
	now := tb.clock.Now()
	tb.scratch = t.AppendKey(tb.scratch[:0], tb.pk)

	if existing, ok := tb.rows[string(tb.scratch)]; ok {
		if existing.t.Equal(t) {
			// Pure refresh: renew lifetime, no delta.
			existing.expires = tb.expiry(now)
			tb.moveToBack(existing)
			tb.stats.Refreshes++
			return InsertResult{Stored: true}
		}
		old := existing.t
		pk := existing.pk // same key bytes; reuse the interned string
		tb.removeRow(existing, false)
		tb.addRow(t, now, pk)
		tb.stats.Inserts++
		for _, fn := range tb.onReplace {
			fn(old)
		}
		for _, fn := range tb.onInsert {
			fn(t)
		}
		return InsertResult{Stored: true, Delta: true, Replaced: old}
	}

	tb.addRow(t, now, val.InternBytes(tb.scratch))
	// FIFO eviction when over capacity. The eviction's delete listeners
	// fire while t is stored but not yet announced; Inserting marks the
	// window so incremental listeners can fold the whole mutation into
	// one notification.
	prev := tb.inserting
	tb.inserting = t
	for tb.maxSize > 0 && len(tb.rows) > tb.maxSize {
		tb.removeRow(tb.head, true)
	}
	tb.inserting = prev
	tb.stats.Inserts++
	for _, fn := range tb.onInsert {
		fn(t)
	}
	return InsertResult{Stored: true, Delta: true}
}

func (tb *Table) expiry(now float64) float64 {
	if tb.ttl == Infinity {
		return Infinity
	}
	return now + tb.ttl
}

// newRow takes a row from the free list, refilling it from a fresh
// arena block when empty. Recycled rows keep their ixKeys capacity, so
// steady-state churn re-renders keys into storage it already owns.
func (tb *Table) newRow() *row {
	if tb.free == nil {
		if tb.blockLen < rowBlockMin {
			tb.blockLen = rowBlockMin
		}
		block := make([]row, tb.blockLen)
		if tb.blockLen < rowBlockMax {
			tb.blockLen *= 2
		}
		for i := range block {
			block[i].next = tb.free
			tb.free = &block[i]
		}
	}
	r := tb.free
	tb.free = r.next
	r.next = nil
	return r
}

// recycle returns r to the free list. Every external reference (rows
// map, order links, index buckets) must already be gone; the caller
// must not touch r afterwards — a reentrant listener may reuse it for
// a new row at any point.
func (tb *Table) recycle(r *row) {
	r.t = nil
	r.pk = ""
	r.prev = nil
	for i := range r.ixKeys {
		r.ixKeys[i] = ""
	}
	r.ixKeys = r.ixKeys[:0]
	r.next = tb.free
	tb.free = r
}

// pushBack links r at the tail of the insertion-order list.
func (tb *Table) pushBack(r *row) {
	r.prev = tb.tail
	r.next = nil
	if tb.tail != nil {
		tb.tail.next = r
	} else {
		tb.head = r
	}
	tb.tail = r
}

// unlink removes r from the insertion-order list.
func (tb *Table) unlink(r *row) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		tb.head = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		tb.tail = r.prev
	}
	r.prev, r.next = nil, nil
}

// moveToBack re-links r as the newest row (TTL refresh order).
func (tb *Table) moveToBack(r *row) {
	if tb.tail == r {
		return
	}
	tb.unlink(r)
	tb.pushBack(r)
}

// addRow stores t under the pre-rendered primary key pk, rendering and
// caching each secondary-index key once. Keys are interned through the
// global symbol table: a bucket key rendered on one node — or in one
// tuple field — shares storage with every other appearance of the same
// bytes, and re-adding a previously seen key allocates nothing.
func (tb *Table) addRow(t *tuple.Tuple, now float64, pk string) {
	tb.version++
	r := tb.newRow()
	r.t, r.expires, r.pk = t, tb.expiry(now), pk
	tb.pushBack(r)
	tb.rows[pk] = r
	if n := len(tb.indices); n > 0 {
		if cap(r.ixKeys) >= n {
			r.ixKeys = r.ixKeys[:n]
		} else {
			r.ixKeys = make([]string, n)
		}
		for i, ix := range tb.indices {
			tb.scratch = t.AppendKey(tb.scratch[:0], ix.positions)
			k := val.InternBytes(tb.scratch)
			r.ixKeys[i] = k
			ix.m[k] = append(ix.m[k], r)
			ix.appends++
		}
	}
}

// removeRow unlinks r using its cached key strings — nothing is
// re-rendered; when notify is set the delete listeners fire. While a
// probe is visiting buckets, slots are tombstoned in place (and
// compacted when the probe finishes) so no probe sees a row twice.
// The row is recycled before listeners run, so r must not be touched
// after this call.
func (tb *Table) removeRow(r *row, notify bool) {
	tb.version++
	delete(tb.rows, r.pk)
	tb.unlink(r)
	for i, ix := range tb.indices {
		k := r.ixKeys[i]
		bucket := ix.m[k]
		for j, cand := range bucket {
			if cand == r {
				if tb.probing > 0 {
					bucket[j] = nil
					ix.dirty = append(ix.dirty, k)
				} else if len(bucket) == 1 {
					delete(ix.m, k)
				} else {
					bucket[j] = bucket[len(bucket)-1]
					ix.m[k] = bucket[:len(bucket)-1]
				}
				break
			}
		}
	}
	t := r.t
	tb.recycle(r)
	if notify {
		tb.stats.Deletes++
		for _, fn := range tb.onDelete {
			fn(t)
		}
	}
}

// endProbe compacts tombstoned buckets once the last in-flight probe
// completes.
func (tb *Table) endProbe() {
	tb.probing--
	if tb.probing > 0 {
		return
	}
	for _, ix := range tb.indices {
		for _, k := range ix.dirty {
			bucket, ok := ix.m[k]
			if !ok {
				continue
			}
			live := bucket[:0]
			for _, r := range bucket {
				if r != nil {
					live = append(live, r)
				}
			}
			if len(live) == 0 {
				delete(ix.m, k)
			} else {
				ix.m[k] = live
			}
		}
		ix.dirty = ix.dirty[:0]
	}
}

// Delete removes the row whose primary key matches t. It reports
// whether a row was removed.
func (tb *Table) Delete(t *tuple.Tuple) bool {
	tb.Expire()
	tb.scratch = t.AppendKey(tb.scratch[:0], tb.pk)
	r, ok := tb.rows[string(tb.scratch)]
	if !ok {
		return false
	}
	tb.removeRow(r, true)
	return true
}

// Expire removes rows past their lifetime, firing delete listeners.
// It returns the number expired. Callers rarely need this directly —
// every accessor calls it — but the engine also sweeps periodically so
// deletions surface promptly even in idle tables.
//
// Because the TTL is constant and refreshes move rows to the back, the
// order list is sorted by expiry: expiry only ever pops from the front,
// making the common no-expiry case O(1).
func (tb *Table) Expire() int {
	if tb.ttl == Infinity {
		return 0
	}
	now := tb.clock.Now()
	n := 0
	for tb.head != nil && tb.head.expires <= now {
		tb.removeRow(tb.head, true)
		n++
	}
	return n
}

// EnsureIndex returns the secondary index over the given field
// positions, creating it (and backfilling existing rows) on first use.
// The returned handle is stable for the table's lifetime — equijoins
// resolve it once at wiring time and probe it directly.
func (tb *Table) EnsureIndex(positions []int) *Index {
	sig := indexSig(positions)
	if ix, ok := tb.bySig[sig]; ok {
		return ix
	}
	ix := &Index{
		tb:        tb,
		positions: append([]int(nil), positions...),
		ord:       len(tb.indices),
		m:         make(map[string][]*row),
	}
	for r := tb.head; r != nil; r = r.next {
		tb.scratch = r.t.AppendKey(tb.scratch[:0], ix.positions)
		k := val.InternBytes(tb.scratch)
		r.ixKeys = append(r.ixKeys, k)
		ix.m[k] = append(ix.m[k], r)
	}
	tb.indices = append(tb.indices, ix)
	tb.bySig[sig] = ix
	return ix
}

func indexSig(positions []int) string {
	parts := make([]string, len(positions))
	for i, p := range positions {
		parts[i] = strconv.Itoa(p)
	}
	return strings.Join(parts, ",")
}

// Positions returns the indexed field positions. Treat as read-only.
func (ix *Index) Positions() []int { return ix.positions }

// Table returns the table the index belongs to.
func (ix *Index) Table() *Table { return ix.tb }

// Each visits every live tuple whose indexed fields equal the rendered
// key (as produced by tuple.AppendKey over the probe positions),
// stopping early if fn returns false. This is the zero-allocation probe
// path: the key arrives in a caller-owned scratch buffer and the bucket
// is consulted in place.
//
// Mid-visit mutation semantics: rows the visit's own side effects
// insert are not visited (the probe sees the bucket as of entry), and
// rows they remove are tombstoned in place, so no row is ever visited
// twice. A removed-but-unvisited row is therefore SKIPPED, where a
// snapshot taken at entry would still yield it. Not deriving from a row
// the same event chain just retracted is the more faithful reading of
// soft state; self-modifying rules that delete from the table they are
// probing see the deletion immediately.
func (ix *Index) Each(key []byte, fn func(*tuple.Tuple) bool) {
	ix.tb.Expire()
	ix.PeekEach(key, fn)
}

// PeekEach is Each without the expiry pass — for probes made from
// inside table-mutation listeners, where re-entering Expire would
// recurse into the listener chain.
//
// The key buffer must stay stable for the duration of the visit (true
// for the key stack equijoins render into: a probe's key stays put until
// its walk returns, and the probes downstream render past it).
func (ix *Index) PeekEach(key []byte, fn func(*tuple.Tuple) bool) {
	bucket := ix.m[string(key)]
	end := len(bucket)
	if end == 0 {
		return
	}
	ix.tb.probing++
	ver := ix.appends
	for i := 0; i < end; i++ {
		if ix.appends != ver {
			// A mid-visit insert into this index may have reallocated
			// the bucket, in which case later tombstones land in the new
			// array; re-read so removals stay visible. Slot positions
			// are stable — removals tombstone in place while a probe is
			// live and appends only extend past our bound.
			bucket = ix.m[string(key)]
			ver = ix.appends
		}
		r := bucket[i]
		if r == nil {
			continue
		}
		if !fn(r.t) {
			break
		}
	}
	ix.tb.endProbe()
}

// Contains reports whether any live row matches the rendered key — the
// antijoin probe.
func (ix *Index) Contains(key []byte) bool {
	ix.tb.Expire()
	for _, r := range ix.m[string(key)] {
		if r != nil {
			return true
		}
	}
	return false
}

// Scan returns all live tuples in insertion order.
func (tb *Table) Scan() []*tuple.Tuple {
	tb.Expire()
	out := make([]*tuple.Tuple, 0, len(tb.rows))
	for r := tb.head; r != nil; r = r.next {
		out = append(out, r.t)
	}
	return out
}

// ScanSorted returns all live tuples ordered by their rendered form —
// deterministic output for tests and the olgc inspector. Each tuple is
// rendered once, not O(log n) times inside the sort comparator.
func (tb *Table) ScanSorted() []*tuple.Tuple {
	rows := tb.Scan()
	type keyed struct {
		key string
		t   *tuple.Tuple
	}
	keys := make([]keyed, len(rows))
	for i, t := range rows {
		keys[i] = keyed{key: t.String(), t: t}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].key < keys[j].key })
	for i := range keys {
		rows[i] = keys[i].t
	}
	return rows
}
