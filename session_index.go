package cep

// The Session side of the ingress discrimination network
// (internal/filterindex): subscription declaration per lane, index
// rebuilds on lane-set mutations, the routed feed path, and the
// IndexReport observability surface. See SessionConfig.FilterIndex.

import (
	"context"
	"sort"
	"sync"

	"repro/internal/filterindex"
	"repro/internal/mqo"
	"repro/internal/pattern"
	"repro/internal/pool"
	"repro/internal/trace"
)

// rebuildIndexLocked recomputes the lane subscriptions and swaps in a
// successor index, reusing the shards (and hit counters) of every type
// outside dirty. nil dirty rebuilds everything. The caller holds mu and —
// on a running session — intakeMu's write side, so the swap is atomic with
// respect to the feed and the index never references a retired lane.
//
// Subscription policy per lane kind:
//   - shared DAG lanes: with FilterIndex, one subscription per engine
//     intake (negation buffers and leaves, slot-addressed) so the verdict
//     substitutes for the engine's own type dispatch and unary filtering;
//     without it they are always-lanes (broadcast members);
//   - private Register/AddQuery lanes: one subscription per pattern
//     position — including negated and Kleene positions, so any event the
//     pattern could consume reaches the lane. The engine re-runs its own
//     checks (routing is a superset filter here); without FilterIndex the
//     subscriptions are type-only, the stage-1 fast path;
//   - RegisterDetector lanes: the plan is opaque — always-lanes.
func (s *Session) rebuildIndexLocked(dirty map[string]bool) {
	var subs []filterindex.Sub
	var always []int
	for _, l := range *s.laneTab.Load() {
		if l.retired || l.discard {
			continue
		}
		switch {
		case l.eng != nil:
			if !s.cfg.FilterIndex {
				always = append(always, l.idx)
				continue
			}
			for _, es := range l.eng.Subscriptions() {
				subs = append(subs, filterindex.Sub{
					Lane: l.idx, Slot: es.Slot, Type: es.Type,
					Conds: es.Conds, Residual: es.Residual,
				})
			}
		case l.q != nil && l.q.rt != nil:
			subs = appendRuntimeSubs(subs, l.idx, l.q.rt, s.cfg.FilterIndex)
		default:
			always = append(always, l.idx)
		}
	}
	s.fidx.Store(filterindex.Update(s.fidx.Load(), subs, always, dirty))
	s.tel.recordKV(s.seq.Load(), "index_rebuild",
		kv("subs", len(subs)), kv("always", len(always)), kv("dirty", len(dirty)))
}

// appendRuntimeSubs declares a private lane's intakes from its compiled
// plan: one subscription per position of every disjunct. With the full
// index the position's unary filters join the subscription; otherwise
// type-only.
func appendRuntimeSubs(subs []filterindex.Sub, lane int, rt *Runtime, full bool) []filterindex.Sub {
	for _, sp := range rt.plan.Simple {
		c := sp.Compiled
		for pos := 0; pos < c.N; pos++ {
			sub := filterindex.Sub{Lane: lane, Slot: -1, Type: c.Types[pos]}
			if full {
				for _, u := range c.Preds.Unaries(pos) {
					if u.HasCond {
						sub.Conds = append(sub.Conds, u.Cond)
					} else {
						sub.Residual = append(sub.Residual, u.Fn)
					}
				}
			}
			subs = append(subs, sub)
		}
	}
	return subs
}

// laneDirtyTypes accumulates the event types the lane subscribes to — the
// shards an index rebuild must reconstruct when this lane changes.
func (s *Session) laneDirtyTypes(dst map[string]bool, l *sessionLane) {
	switch {
	case l.eng != nil:
		for _, es := range l.eng.Subscriptions() {
			dst[es.Type] = true
		}
	case l.q != nil && l.q.rt != nil:
		for _, sp := range l.q.rt.plan.Simple {
			for _, t := range sp.Compiled.Types {
				dst[t] = true
			}
		}
	}
}

// wireIndexStats points the adaptivity collector's unary-selectivity
// source at the live index, so drift re-planning prices the post-index
// rates the lanes actually see. The closure follows RCU swaps by loading
// the current index per query.
func (s *Session) wireIndexStats() {
	if !s.cfg.FilterIndex || s.adapt == nil || s.adapt.col == nil {
		return
	}
	s.adapt.col.SetUnarySource(func(typ string, cond pattern.Condition) (float64, bool) {
		fi := s.fidx.Load()
		if fi == nil {
			return 0, false
		}
		return fi.UnarySelectivity(typ, cond)
	})
}

// routeScratch is the pooled per-call workspace of the routed feed path.
// Every slice, the per-lane routes included, is reused across calls; the
// routes handed to lanes inside sessionItems are copied out into one fresh
// arena per call, whose ownership moves to the workers.
type routeScratch struct {
	hits    []filterindex.Hit
	pairs   []pool.Grouped[sessionItem]
	perLane [][]int32 // lane index → route being built (sessionItem.route layout)
	touched []int32
	keys    []mqo.KeyCol // lane index → partition key reader (partitioned lanes)
}

// bucket returns the event's partition bucket on a partitioned lane. The
// key reader is the scratch's own, since a KeyCol must not be shared
// between submitting goroutines.
func (sc *routeScratch) bucket(lane int, ln *sessionLane, e *Event) int {
	if len(sc.keys) <= lane {
		sc.keys = append(sc.keys, make([]mqo.KeyCol, lane+1-len(sc.keys))...)
	}
	k := &sc.keys[lane]
	if k.Attr() != ln.partAttr {
		*k = mqo.NewKeyCol(ln.partAttr)
	}
	return mqo.PartitionBucket(e, k, ln.parts)
}

var routePool = sync.Pool{New: func() any { return &routeScratch{} }}

func putRouteScratch(sc *routeScratch) {
	for i := range sc.pairs {
		sc.pairs[i] = pool.Grouped[sessionItem]{}
	}
	sc.pairs = sc.pairs[:0]
	sc.hits = sc.hits[:0]
	sc.touched = sc.touched[:0]
	routePool.Put(sc)
}

// sortHits orders hits by (lane, slot): lane grouping for the routing
// loop, ascending slots for the engines' masked processing (negation
// intakes numbered below leaves). Hit lists are post-filter and typically
// tiny, so insertion sort; large lists fall back to sort.Slice.
func sortHits(h []filterindex.Hit) {
	if len(h) > 64 {
		sort.Slice(h, func(i, j int) bool {
			if h[i].Lane != h[j].Lane {
				return h[i].Lane < h[j].Lane
			}
			return h[i].Slot < h[j].Slot
		})
		return
	}
	for i := 1; i < len(h); i++ {
		for j := i; j > 0 && (h[j].Lane < h[j-1].Lane ||
			(h[j].Lane == h[j-1].Lane && h[j].Slot < h[j-1].Slot)); j-- {
			h[j], h[j-1] = h[j-1], h[j]
		}
	}
}

// routeBatch evaluates each event against the index and sends at most ONE
// item per lane: the whole batch to always-lanes, and the batch plus a
// per-lane route (selected event indices and, for shared DAG lanes, their
// slot lists) to lanes with hits. Per-event sequence numbers are
// reconstructed from the item seq plus the selected index, exactly as in
// the broadcast batch path. The batch is copied only when some lane takes
// it. Called under intakeMu's read side.
func (s *Session) routeBatch(ctx context.Context, fi *filterindex.Index, events []*Event, seq0 uint64, t0 int64, tr *trace.Active) error {
	sc := routePool.Get().(*routeScratch)
	lanes := *s.laneTab.Load()
	if nl := len(lanes); len(sc.perLane) < nl {
		sc.perLane = append(sc.perLane, make([][]int32, nl-len(sc.perLane))...)
	}
	touched := sc.touched[:0]
	nohit := 0
	routed := 0
	size := 0 // total route length across lanes
	for bi, e := range events {
		sc.hits = fi.AppendHits(e, sc.hits[:0])
		if len(sc.hits) == 0 {
			nohit++
			continue
		}
		sortHits(sc.hits)
		for i := 0; i < len(sc.hits); {
			lane := sc.hits[i].Lane
			j := i + 1
			for j < len(sc.hits) && sc.hits[j].Lane == lane {
				j++
			}
			hi := j
			if ln := lanes[int(lane)]; ln.parts > 1 && sc.hits[i].Slot >= 0 &&
				sc.bucket(int(lane), ln, e) != ln.part {
				// Key-partitioned lane that does not own the event's hash
				// bucket: only its negation intakes (the sorted slot prefix
				// below negSlots) may see the event — leaf insertions belong
				// to the owning sibling. (The engine gates leaves itself too;
				// the router filter keeps non-owned traffic off the lane.)
				for hi = i; hi < j && int(sc.hits[hi].Slot) < ln.negSlots; hi++ {
				}
				if hi == i {
					i = j
					continue
				}
			}
			r := append(sc.perLane[lane], ^int32(bi))
			if len(r) == 1 {
				touched = append(touched, lane)
			}
			if sc.hits[i].Slot >= 0 {
				// Shared lane: carry the hit slots. A private lane's hits
				// have no slot; being routed is its whole verdict.
				for k := i; k < hi; k++ {
					r = append(r, sc.hits[k].Slot)
				}
			}
			size += len(r) - len(sc.perLane[lane])
			sc.perLane[lane] = r
			routed++
			i = j
		}
	}
	if tr != nil {
		// One coarse filter span for the whole sampled batch: per-event
		// verdicts would swamp the trace at batch sizes, so the span carries
		// the aggregate — event→lane deliveries and events no lane wanted.
		tr.Spanf(trace.StageFilter, -1, "events=%d routed=%d nohit=%d always=%d",
			len(events), routed, nohit, len(fi.Always()))
	}
	var batch []*Event
	if len(touched) > 0 || len(fi.Always()) > 0 {
		batch = ownBatch(events)
	}
	pairs := sc.pairs[:0]
	for _, lane := range fi.Always() {
		pairs = append(pairs, pool.Grouped[sessionItem]{Lane: int(lane), Item: sessionItem{batch: batch, seq: seq0, t0: t0}})
	}
	// Copy every touched lane's route into one arena: a single allocation
	// per call however many lanes the batch reaches. The scratch routes are
	// reset for reuse as they are copied.
	arena := make([]int32, 0, size)
	for _, lane := range touched {
		n := len(arena)
		arena = append(arena, sc.perLane[lane]...)
		sc.perLane[lane] = sc.perLane[lane][:0]
		it := sessionItem{batch: batch, seq: seq0, t0: t0, route: arena[n:len(arena):len(arena)]}
		if tr != nil {
			if ln := lanes[int(lane)]; ln.parts > 1 {
				tr.Spanf(trace.StagePartition, int(lane), "parts=%d attr=%s sel=%d",
					ln.parts, ln.partAttr, routedEvents(it.route))
			}
		}
		pairs = append(pairs, pool.Grouped[sessionItem]{Lane: int(lane), Item: it})
	}
	if tr != nil {
		for i := range pairs {
			pairs[i].Item.tr = tr
			tr.Span(trace.StageEnqueue, pairs[i].Lane, "")
		}
		if len(pairs) == 0 {
			tr.Span(trace.StageEnqueue, -1, "dropped")
		}
	}
	if t := s.tel; t != nil {
		// Count event→lane deliveries: every selected event per touched
		// lane, plus the whole batch for each always-lane.
		t.eventsRouted.Add(int64(routed) + int64(len(fi.Always()))*int64(len(events)))
		if len(fi.Always()) == 0 {
			// With no always-lanes, a no-hit event reached nothing at all.
			t.eventsDropped.Add(int64(nohit))
		}
	}
	sc.pairs = pairs
	sc.touched = touched
	err := sessErr(s.pool.SendGroupedCtx(ctx, pairs))
	putRouteScratch(sc)
	return err
}

// IndexTypeReport is the per-event-type slice of IndexReport.
type IndexTypeReport struct {
	// Type is the event type this shard dispatches.
	Type string
	// Subscriptions counts the intakes registered for the type — the
	// candidate set stage-1 dispatch narrows an event to.
	Subscriptions int
	// ScanSubscriptions counts the subscriptions with no indexable
	// constraint: stage 2 scans their residual filters on every event of
	// the type.
	ScanSubscriptions int
	// IndexedConstraints counts the distinct constant constraints compiled
	// into the type's hash/range tables.
	IndexedConstraints int
	// Events is the number of events of this type evaluated.
	Events int64
	// Hits is the number of subscription hits those events produced.
	Hits int64
	// HitRate is Hits / (Events × Subscriptions): the average fraction of
	// the type's candidate set an event actually matches — the post-index
	// fan-out the broadcast path would have paid in full.
	HitRate float64
	// ResidualFraction is ScanSubscriptions / Subscriptions: how much of
	// the type's candidate set the constraint tables cannot discriminate.
	ResidualFraction float64
}

// IndexReport describes the ingress filter index: per-type candidate
// counts, measured hit rates and residual-scan fractions.
type IndexReport struct {
	// FullIndex reports whether SessionConfig.FilterIndex enabled the
	// constant-predicate tables; false means only the type-dispatch fast
	// path for private lanes is active.
	FullIndex bool
	// Lanes is the number of live lanes fed through the index;
	// AlwaysLanes the number bypassing it (opaque detectors, and shared
	// DAG lanes when FullIndex is false).
	Lanes       int
	AlwaysLanes int
	// Subscriptions is the total registered intake count.
	Subscriptions int
	Types         []IndexTypeReport
}

// IndexReport returns a snapshot of the ingress filter index, or nil
// before the session started. The snapshot is immutable; counters are
// cumulative over each type shard's lifetime (shards survive churn of
// unrelated types).
func (s *Session) IndexReport() *IndexReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started {
		return nil
	}
	fi := s.fidx.Load()
	if fi == nil {
		return nil
	}
	rep := &IndexReport{
		FullIndex:     s.cfg.FilterIndex,
		AlwaysLanes:   len(fi.Always()),
		Subscriptions: fi.Subs(),
	}
	for _, l := range *s.laneTab.Load() {
		if !l.retired && !l.discard {
			rep.Lanes++
		}
	}
	rep.Lanes -= rep.AlwaysLanes
	for _, tr := range fi.Report() {
		itr := IndexTypeReport{
			Type:               tr.Type,
			Subscriptions:      tr.Subs,
			ScanSubscriptions:  tr.ScanSubs,
			IndexedConstraints: tr.IndexedConstraints,
			Events:             tr.Events,
			Hits:               tr.Hits,
		}
		if tr.Events > 0 && tr.Subs > 0 {
			itr.HitRate = float64(tr.Hits) / (float64(tr.Events) * float64(tr.Subs))
		}
		if tr.Subs > 0 {
			itr.ResidualFraction = float64(tr.ScanSubs) / float64(tr.Subs)
		}
		rep.Types = append(rep.Types, itr)
	}
	return rep
}
