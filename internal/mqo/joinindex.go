package mqo

import (
	"math"

	"repro/internal/event"
)

// Hash-probed equi-joins. A join node whose cross predicates include an
// equality on one attribute (`l.k = r.k`, pattern.Condition.EqualityJoin)
// pairs a new child instance only with the sibling's instances that carry
// the same key: each child keeps a joinIndex over its buffer, keyed by the
// attribute at the slot the parent joins on. Every other pairing would fail
// the equality inside combine, so probing the bucket instead of the whole
// buffer tests a subset of the pairs and finds exactly the same merges.
// combine still runs every cross predicate; the index only skips pairs the
// equality rejects. Joins without an equality keep scanning the buffer.
//
// A bucket is a subsequence of its node's buffer, in buffer order (both are
// appended together), so the merges happen in the order a full scan would
// produce them and the emitted matches keep their order. Buckets do not own
// their instances: compact recycles an expired instance through the buffer
// alone, and the bucket entry recognises it as stale by its generation.
// Stale and expired entries leave a bucket when a probe, or an append to a
// full bucket, finds them at its front, and in a sweep once they outnumber
// the live buffer.
//
// An index is built from its node's buffer on first use, not when the
// buffer is filled: AdoptFrom copies buffers during the splice pause, when
// every lane is stopped, and the buckets are then built by the first event
// that needs them, after the lanes have restarted.

// sweepSlack is the number of stale entries an index tolerates beyond its
// node's live buffer before compact sweeps it, so that small buffers are
// not swept every time.
const sweepSlack = 256

// KeyCol reads one equi-join attribute off events as Eq sees it. The join
// indexes, the partition router and the engines' partition gate all read
// keys through it. It resolves the attribute's column once per schema, as
// a compiled PairFn does, and remembers the schemas it has seen, so a
// KeyCol is not safe for concurrent use: each reader owns its own.
type KeyCol struct {
	attr   string
	pseudo bool // an event-header attribute Event.Attr answers before the schema
	seen   []schemaCol
}

type schemaCol struct {
	schema *event.Schema
	col    int // -1 when the schema lacks the attribute
}

// maxSeenSchemas bounds the schemas a KeyCol remembers; events of further
// schemas resolve the column by name on every read.
const maxSeenSchemas = 16

// NewKeyCol returns a reader of attribute attr.
func NewKeyCol(attr string) KeyCol {
	_, pseudo := (&event.Event{}).Attr(attr)
	return KeyCol{attr: attr, pseudo: pseudo}
}

// Attr returns the attribute the KeyCol reads.
func (k *KeyCol) Attr() string { return k.attr }

// Read returns the event's key and whether Eq can hold for it at all: a
// missing attribute equals nothing, so it has no key (see eqKey).
func (k *KeyCol) Read(ev *event.Event) (uint64, bool) {
	if k.pseudo {
		v, _ := ev.Attr(k.attr)
		return eqKey(v)
	}
	col := k.column(ev.Schema)
	if col < 0 {
		return 0, false
	}
	return eqKey(ev.Attrs[col])
}

func (k *KeyCol) column(s *event.Schema) int {
	for _, sc := range k.seen {
		if sc.schema == s {
			return sc.col
		}
	}
	col := -1
	if s != nil {
		if i, ok := s.Index(k.attr); ok {
			col = i
		}
	}
	if len(k.seen) < maxSeenSchemas {
		k.seen = append(k.seen, schemaCol{schema: s, col: col})
	}
	return col
}

// eqKey is the key under which Eq pairs v: the value's bit pattern, with
// -0 folded onto +0, which Eq treats as equal, so keys are equal exactly
// when the values are. A NaN equals nothing and has no key.
func eqKey(v float64) (uint64, bool) {
	if v != v {
		return 0, false
	}
	if v == 0 {
		return 0, true
	}
	return math.Float64bits(v), true
}

// joinIndex buckets one buffering node's instances by the key at one slot.
type joinIndex struct {
	owner   *node
	slot    int
	col     KeyCol
	built   bool // buckets reflect owner.buffer
	buckets map[uint64]*bucket
	size    int // entries across all buckets, stale ones included
}

// bucket holds one key's entries in items[head:]; the entries below head
// were dropped and await compaction.
type bucket struct {
	items []bucketEntry
	head  int
}

// bucketEntry is one indexed instance with the generation it had when it
// was indexed; a recycled instance has moved on to a later generation.
type bucketEntry struct {
	in  *inst
	gen uint32
}

func (en bucketEntry) stale() bool { return en.gen != en.in.gen }

// indexOn returns the node's index on (slot, attr), creating it on first
// use: parents joining on the same column share one index.
func (n *node) indexOn(slot int, attr string) *joinIndex {
	for _, ix := range n.indexes {
		if ix.slot == slot && ix.col.attr == attr {
			return ix
		}
	}
	ix := &joinIndex{owner: n, slot: slot, col: NewKeyCol(attr)}
	n.indexes = append(n.indexes, ix)
	return ix
}

func (ix *joinIndex) keyOf(in *inst) (uint64, bool) { return ix.col.Read(in.ev[ix.slot]) }

// add appends an instance to its key's bucket. The caller appends it to
// the owner's buffer after this call.
func (ix *joinIndex) add(in *inst, now event.Time) {
	if !ix.built {
		ix.build(now)
	}
	ix.put(in, now)
}

// build indexes the owner's buffer as it stands.
func (ix *joinIndex) build(now event.Time) {
	ix.built, ix.buckets, ix.size = true, map[uint64]*bucket{}, 0
	for _, in := range ix.owner.buffer {
		ix.put(in, now)
	}
}

// reset drops the buckets; the next use rebuilds them from the buffer.
func (ix *joinIndex) reset() { ix.built, ix.buckets, ix.size = false, nil, 0 }

// put appends an instance to its key's bucket. A full bucket first drops
// its dead front (see trim), so a bucket that turns over reuses its
// capacity instead of growing until the next sweep.
func (ix *joinIndex) put(in *inst, now event.Time) {
	k, ok := ix.keyOf(in)
	if !ok {
		return
	}
	b := ix.buckets[k]
	if b == nil {
		b = &bucket{}
		ix.buckets[k] = b
	}
	if len(b.items) == cap(b.items) {
		ix.trim(b, now)
		if b.head > 0 {
			ix.compactBucket(b)
		}
	}
	b.items = append(b.items, bucketEntry{in: in, gen: in.gen})
	ix.size++
}

// probe returns the live entries of key k's bucket, first dropping the
// stale or expired entries at its front. Entries further back may still be
// stale; the caller skips them. The caller iterates the returned slice
// while recursive inserts may probe the same bucket; such a nested probe
// drops nothing, because the clock does not move and no buffered instance
// is recycled within one insert, and no recursive insert puts into it,
// because the DAG has no cycles.
func (ix *joinIndex) probe(k uint64, now event.Time) []bucketEntry {
	if !ix.built {
		ix.build(now)
	}
	b := ix.buckets[k]
	if b == nil {
		return nil
	}
	ix.trim(b, now)
	if b.head > 0 && 2*b.head >= len(b.items) {
		ix.compactBucket(b)
	}
	return b.items[b.head:]
}

// trim drops the stale or expired entries (now-minTS beyond the owner's
// window) at the front of a bucket by moving its head past them.
func (ix *joinIndex) trim(b *bucket, now event.Time) {
	i := b.head
	for i < len(b.items) && (b.items[i].stale() || now-b.items[i].in.minTS > ix.owner.window) {
		i++
	}
	clear(b.items[b.head:i])
	ix.size -= i - b.head
	b.head = i
}

// compactBucket moves a bucket's entries down to the start of its slice.
// probe compacts once the dropped entries are half the slice, so every
// entry is moved O(1) times on average.
func (ix *joinIndex) compactBucket(b *bucket) {
	n := copy(b.items, b.items[b.head:])
	clear(b.items[n:])
	b.items, b.head = b.items[:n], 0
}

// sweep drops every stale or expired entry and every empty bucket. The map
// is rebuilt rather than pruned, since a Go map never shrinks: iteration
// cost stays proportional to the live keys.
func (ix *joinIndex) sweep(now event.Time) {
	live := make(map[uint64]*bucket, len(ix.buckets))
	size := 0
	for k, b := range ix.buckets {
		keep := b.items[:0]
		for _, en := range b.items[b.head:] {
			if !en.stale() && now-en.in.minTS <= ix.owner.window {
				keep = append(keep, en)
			}
		}
		clear(b.items[len(keep):])
		if len(keep) == 0 {
			continue
		}
		b.items, b.head = keep, 0
		live[k] = b
		size += len(keep)
	}
	ix.buckets, ix.size = live, size
}
