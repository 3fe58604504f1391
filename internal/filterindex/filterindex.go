// Package filterindex implements the ingress discrimination network that
// lets a Session route each event only to the lanes that can possibly use
// it, replacing broadcast + per-lane re-filtering (the second MQO sharing
// axis: sharing *filtering*, complementing the shared joins of
// internal/mqo).
//
// The network has two stages, evaluated once per event:
//
//  1. exact type dispatch — the event's type selects one shard; events of a
//     type no subscription names match nothing and are dropped at ingress;
//  2. constant unary predicates per type — equality constraints
//     (attr == const) hash into buckets, ordered comparisons
//     (attr >=/>/<=/< const) become sorted bound lists scanned as a prefix,
//     and everything the classifier cannot compile (Ne, attr-vs-attr,
//     opaque closures) lands on a per-subscription residual list or, for
//     subscriptions with no indexable constraint at all, a scan list.
//
// A subscription is a conjunction: the event must match the type, every
// indexable constraint and every residual filter. Matching uses the
// counting algorithm (SIFT / Le Subscribe style): each matched constraint
// bumps a per-subscription counter on pooled scratch, and a subscription
// whose counter reaches its constraint count has its residuals scanned and,
// on success, emits a (lane, slot) hit. Per-event cost is therefore
// O(matched constraints + hits), not O(subscriptions).
//
// An Index is immutable after construction; the owner publishes it through
// an atomic pointer (RCU) so the feed path never locks. Update derives a
// successor index reusing the shards — and their live counters — of every
// type outside the dirty set, which is what makes query churn cheap: only
// the affected types' tables are rebuilt.
package filterindex

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/predicate"
)

// Sub is one subscription: an event intake registered by a lane. Slot is an
// opaque intake id within the lane (engines use it to address a specific
// DAG leaf or negation buffer; lanes that only need a routed/not-routed
// verdict pass -1). Conds are the intake's unary conditions — indexable
// ones are compiled into the constraint tables, the rest are scanned as
// residuals. Residual carries already-compiled opaque filters with no
// declarative form; they are always scanned.
type Sub struct {
	Lane     int
	Slot     int
	Type     string
	Conds    []pattern.Condition
	Residual []predicate.UnaryFn
}

// Hit identifies a matched subscription.
type Hit struct {
	Lane int32
	Slot int32
}

// minSelEvents is the evaluation floor below which UnarySelectivity
// declines to answer, leaving the drift collector on its sampled estimate.
const minSelEvents = 32

// Index is the immutable two-stage discrimination network. Safe for
// concurrent evaluation; rebuilt (not mutated) on churn.
type Index struct {
	shards map[string]*shard
	always []int32 // lanes that receive every event, sorted ascending
	nSubs  int
}

// selCounter tracks lifetime hit counts for one distinct indexed
// constraint, shared by every subscription registering it; paired with the
// shard's eval counter it yields the measured post-index selectivity.
type selCounter struct {
	hits atomic.Int64
}

type shardSub struct {
	lane, slot int32
	need       int32 // distinct indexed constraints that must match
	residual   []predicate.UnaryFn
}

type bound struct {
	val    float64
	strict bool // Gt / Lt (excludes equality)
	subs   []int32
	sel    *selCounter
}

type eqEntry struct {
	subs []int32
	sel  *selCounter
}

// attrResolved caches the attribute's index in one schema, like the
// per-schema caches in internal/pattern's compiled accessors.
type attrResolved struct {
	s *event.Schema
	i int
}

type attrGroup struct {
	attr     string
	pseudo   func(*event.Event) float64
	resolved atomic.Pointer[attrResolved]
	eq       map[float64]*eqEntry
	lower    []bound // attr >= / > val, sorted by val ascending
	upper    []bound // attr <= / < val, sorted by val descending
}

type shard struct {
	typ      string
	subs     []shardSub
	scan     []int32 // subs with need == 0: checked on every event of the type
	groups   []*attrGroup
	selTab   map[string]*selCounter // normalized constraint key → counter
	nIndexed int                    // distinct indexed constraints
	scratch  sync.Pool              // *evalScratch

	evals    atomic.Int64 // events of this type evaluated
	hits     atomic.Int64 // subscription hits emitted
	resCheck atomic.Int64 // residual filter evaluations
}

type evalScratch struct {
	counts  []int32
	touched []int32
}

func (g *attrGroup) value(e *event.Event) (float64, bool) {
	if g.pseudo != nil {
		return g.pseudo(e), true
	}
	res := g.resolved.Load()
	if res == nil || res.s != e.Schema {
		nr := &attrResolved{s: e.Schema, i: -1}
		if e.Schema != nil {
			if i, ok := e.Schema.Index(g.attr); ok {
				nr.i = i
			}
		}
		g.resolved.Store(nr)
		res = nr
	}
	if res.i < 0 || res.i >= len(e.Attrs) {
		return 0, false
	}
	return e.Attrs[res.i], true
}

// conKey is the normalized identity of an indexed constraint.
func conKey(attr string, op pattern.CmpOp, val float64) string {
	return attr + "|" + op.String() + "|" + strconv.FormatFloat(val, 'g', -1, 64)
}

// Always returns the lanes that bypass the network and receive every
// event (opaque detectors; shared DAGs when the full index is disabled).
func (x *Index) Always() []int32 { return x.always }

// Subs returns the total number of registered subscriptions.
func (x *Index) Subs() int { return x.nSubs }

// Empty reports whether no subscription is registered at all, in which
// case evaluation is pure overhead and the caller may broadcast.
func (x *Index) Empty() bool { return len(x.shards) == 0 }

func (sh *shard) getScratch() *evalScratch {
	sc, _ := sh.scratch.Get().(*evalScratch)
	if sc == nil || len(sc.counts) < len(sh.subs) {
		sc = &evalScratch{counts: make([]int32, len(sh.subs))}
	}
	return sc
}

func (sh *shard) putScratch(sc *evalScratch) {
	for _, si := range sc.touched {
		sc.counts[si] = 0
	}
	sc.touched = sc.touched[:0]
	sh.scratch.Put(sc)
}

// complete runs the subscription's residual filters and appends its hit.
func (sh *shard) complete(e *event.Event, si int32, dst []Hit) []Hit {
	sub := &sh.subs[si]
	for _, fn := range sub.residual {
		sh.resCheck.Add(1)
		if !fn(e) {
			return dst
		}
	}
	sh.hits.Add(1)
	return append(dst, Hit{Lane: sub.lane, Slot: sub.slot})
}

func (sh *shard) bump(sc *evalScratch, e *event.Event, si int32, dst []Hit) []Hit {
	c := sc.counts[si] + 1
	sc.counts[si] = c
	if c == 1 {
		sc.touched = append(sc.touched, si)
	}
	if c == sh.subs[si].need {
		dst = sh.complete(e, si, dst)
	}
	return dst
}

// AppendHits evaluates the event against its type's shard, appending every
// matching subscription's (lane, slot) tag to dst. Hits are not ordered;
// callers that need (lane, slot) grouping sort them. Safe for concurrent
// use.
func (x *Index) AppendHits(e *event.Event, dst []Hit) []Hit {
	sh := x.shards[e.Type]
	if sh == nil {
		return dst
	}
	sh.evals.Add(1)
	for _, si := range sh.scan {
		dst = sh.complete(e, si, dst)
	}
	if len(sh.groups) == 0 {
		return dst
	}
	sc := sh.getScratch()
	for _, g := range sh.groups {
		v, ok := g.value(e)
		if !ok || v != v {
			// A missing attribute or a NaN satisfies no indexed
			// constraint: every comparison with NaN is false, while the
			// bound scans below would read its failed comparisons as hits.
			continue
		}
		if en := g.eq[v]; en != nil {
			en.sel.hits.Add(1)
			for _, si := range en.subs {
				dst = sh.bump(sc, e, si, dst)
			}
		}
		for i := range g.lower {
			b := &g.lower[i]
			if b.val > v {
				break
			}
			if b.val == v && b.strict {
				continue
			}
			b.sel.hits.Add(1)
			for _, si := range b.subs {
				dst = sh.bump(sc, e, si, dst)
			}
		}
		for i := range g.upper {
			b := &g.upper[i]
			if b.val < v {
				break
			}
			if b.val == v && b.strict {
				continue
			}
			b.sel.hits.Add(1)
			for _, si := range b.subs {
				dst = sh.bump(sc, e, si, dst)
			}
		}
	}
	sh.putScratch(sc)
	return dst
}

// Matches reports whether the event matches any subscription. Convenience
// for single-query ingress (ShardedRuntime) where the verdict is binary.
func (x *Index) Matches(e *event.Event) bool {
	var buf [4]Hit
	return len(x.AppendHits(e, buf[:0])) > 0
}

// UnarySelectivity returns the measured post-index selectivity of an
// indexable unary condition on the given event type: the fraction of
// evaluated events of that type that satisfied the constraint, counted by
// the index's own tables. ok is false when the condition is not indexed
// for the type or fewer than minSelEvents events have been observed —
// callers (the drift collector) then fall back to sampled estimates.
func (x *Index) UnarySelectivity(typ string, cond pattern.Condition) (float64, bool) {
	sh := x.shards[typ]
	if sh == nil {
		return 0, false
	}
	attr, op, val, ok := cond.IndexableUnary()
	if !ok {
		return 0, false
	}
	sel := sh.selTab[conKey(attr, op, val)]
	if sel == nil {
		return 0, false
	}
	evals := sh.evals.Load()
	if evals < minSelEvents {
		return 0, false
	}
	return float64(sel.hits.Load()) / float64(evals), true
}

// TypeReport is the per-type slice of Report.
type TypeReport struct {
	Type               string
	Subs               int   // subscriptions registered for the type
	ScanSubs           int   // subscriptions with no indexable constraint
	IndexedConstraints int   // distinct constraints in the tables
	Events             int64 // events of the type evaluated
	Hits               int64 // subscription hits emitted
	ResidualChecks     int64 // residual filter evaluations
}

// TypeInfo returns the TypeReport of a single event type — the tracing
// layer calls it around a sampled event's AppendHits to describe the
// routing surface it crossed (subscription count, indexed constraints,
// residual-check counter deltas). ok is false when no subscription names
// the type.
func (x *Index) TypeInfo(typ string) (TypeReport, bool) {
	sh := x.shards[typ]
	if sh == nil {
		return TypeReport{}, false
	}
	return TypeReport{
		Type:               typ,
		Subs:               len(sh.subs),
		ScanSubs:           len(sh.scan),
		IndexedConstraints: sh.nIndexed,
		Events:             sh.evals.Load(),
		Hits:               sh.hits.Load(),
		ResidualChecks:     sh.resCheck.Load(),
	}, true
}

// Report snapshots per-type counters, sorted by type name.
func (x *Index) Report() []TypeReport {
	out := make([]TypeReport, 0, len(x.shards))
	for typ, sh := range x.shards {
		out = append(out, TypeReport{
			Type:               typ,
			Subs:               len(sh.subs),
			ScanSubs:           len(sh.scan),
			IndexedConstraints: sh.nIndexed,
			Events:             sh.evals.Load(),
			Hits:               sh.hits.Load(),
			ResidualChecks:     sh.resCheck.Load(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	return out
}

// Build constructs an index over the subscriptions from scratch.
func Build(subs []Sub, always []int) *Index {
	return Update(nil, subs, always, nil)
}

// Update derives a successor index. Shards of types outside dirty are
// reused by pointer from prev — tables and counters intact — so churn pays
// only for the types it touches. A nil dirty set (or nil prev) rebuilds
// everything. The caller must pass the FULL subscription set; dirty only
// declares which types' membership may have changed.
func Update(prev *Index, subs []Sub, always []int, dirty map[string]bool) *Index {
	x := &Index{shards: make(map[string]*shard), nSubs: len(subs)}
	x.always = make([]int32, 0, len(always))
	for _, l := range always {
		x.always = append(x.always, int32(l))
	}
	sort.Slice(x.always, func(i, j int) bool { return x.always[i] < x.always[j] })

	byType := make(map[string][]Sub)
	for _, s := range subs {
		byType[s.Type] = append(byType[s.Type], s)
	}
	for typ, ts := range byType {
		if prev != nil && dirty != nil && !dirty[typ] {
			if old := prev.shards[typ]; old != nil {
				x.shards[typ] = old
				continue
			}
		}
		x.shards[typ] = buildShard(typ, ts)
	}
	return x
}

func buildShard(typ string, subs []Sub) *shard {
	sh := &shard{typ: typ, selTab: make(map[string]*selCounter)}
	groups := make(map[string]*attrGroup)
	type conRef struct {
		g      *attrGroup
		op     pattern.CmpOp
		val    float64
		sel    *selCounter
		rawSub []int32
	}
	cons := make(map[string]*conRef)
	for _, s := range subs {
		si := int32(len(sh.subs))
		ss := shardSub{lane: int32(s.Lane), slot: int32(s.Slot)}
		seen := make(map[string]bool, len(s.Conds))
		for _, c := range s.Conds {
			attr, op, val, ok := c.IndexableUnary()
			if !ok {
				ss.residual = append(ss.residual, c.UnaryFn())
				continue
			}
			key := conKey(attr, op, val)
			if seen[key] { // duplicate within one subscription would skew counting
				continue
			}
			seen[key] = true
			ss.need++
			cr := cons[key]
			if cr == nil {
				g := groups[attr]
				if g == nil {
					g = &attrGroup{attr: attr, pseudo: pseudoAccessor(attr)}
					groups[attr] = g
				}
				cr = &conRef{g: g, op: op, val: val, sel: &selCounter{}}
				cons[key] = cr
				sh.selTab[key] = cr.sel
			}
			cr.rawSub = append(cr.rawSub, si)
		}
		ss.residual = append(ss.residual, s.Residual...)
		if ss.need == 0 {
			sh.scan = append(sh.scan, si)
		}
		sh.subs = append(sh.subs, ss)
	}
	// Materialize constraint tables in deterministic order.
	keys := make([]string, 0, len(cons))
	for k := range cons {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		cr := cons[k]
		sh.nIndexed++
		switch cr.op {
		case pattern.Eq:
			if cr.g.eq == nil {
				cr.g.eq = make(map[float64]*eqEntry)
			}
			en := cr.g.eq[cr.val]
			if en == nil {
				en = &eqEntry{sel: cr.sel}
				cr.g.eq[cr.val] = en
			}
			en.subs = append(en.subs, cr.rawSub...)
		case pattern.Ge, pattern.Gt:
			cr.g.lower = append(cr.g.lower, bound{val: cr.val, strict: cr.op == pattern.Gt, subs: cr.rawSub, sel: cr.sel})
		case pattern.Le, pattern.Lt:
			cr.g.upper = append(cr.g.upper, bound{val: cr.val, strict: cr.op == pattern.Lt, subs: cr.rawSub, sel: cr.sel})
		}
	}
	names := make([]string, 0, len(groups))
	for a := range groups {
		names = append(names, a)
	}
	sort.Strings(names)
	for _, a := range names {
		g := groups[a]
		sort.Slice(g.lower, func(i, j int) bool { return g.lower[i].val < g.lower[j].val })
		sort.Slice(g.upper, func(i, j int) bool { return g.upper[i].val > g.upper[j].val })
		sh.groups = append(sh.groups, g)
	}
	return sh
}

// pseudoAccessor mirrors event.Attr's pseudo-attribute resolution so the
// index can constrain ts/serial/partition/pserial without schema lookups.
func pseudoAccessor(attr string) func(*event.Event) float64 {
	switch attr {
	case "ts":
		return func(e *event.Event) float64 { return float64(e.TS) }
	case "serial":
		return func(e *event.Event) float64 { return float64(e.Serial) }
	case "pserial":
		return func(e *event.Event) float64 { return float64(e.PSerial) }
	case "partition":
		return func(e *event.Event) float64 { return float64(e.Partition) }
	}
	return nil
}
