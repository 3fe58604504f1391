package cep

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"repro/internal/adaptive"
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/drift"
	"repro/internal/mqo"
	"repro/internal/plan"
	"repro/internal/stats"
)

// AdaptiveSessionConfig enables and tunes statistics-drift monitoring on a
// Session: an online collector shadows the feed, and when the measured
// rates and selectivities say a component's running plans have drifted too
// far from what a fresh replan would choose, the affected shared lanes are
// drained, re-planned under the measurements and spliced back (the same
// drain → re-plan → state-adoption pipeline that serves live query churn),
// without dropping or duplicating any surviving query's matches.
// Re-optimization may change sharing structure, not just join orders: a
// common sub-join that stopped winning is dissolved to singleton lanes, and
// a newly profitable one is formed across lanes that were private before.
//
// Private lanes — queries outside the shareable fragment, or any
// Register-ed query when ShareSubplans is off — adapt through the
// single-runtime re-optimization controller (internal/adaptive) fed from
// the same collector. That path swaps engines instead of splicing state:
// in-flight partial matches at a swap are discarded, so the exact-match
// guarantee across re-optimizations holds for the evaluation-DAG lanes
// only. Detector-registered queries never adapt (their plan is opaque).
//
// Zero values select the defaults noted per field.
type AdaptiveSessionConfig struct {
	// CheckEvery is the number of submitted events between drift checks
	// (default 2048). A check re-prices every shared component's running
	// trees under the collector's current measurements and compares with a
	// fresh replan.
	CheckEvery int
	// Threshold is the minimum drift score — cost.DriftScore(running plan
	// re-priced fresh, fresh replan) — a check must report before it counts
	// toward a trigger (default 0.25, i.e. the running plan is modeled 25%
	// more expensive than a replan).
	Threshold float64
	// Hysteresis is the number of consecutive over-threshold checks required
	// before a component is re-optimized (default 2): a noisy but stationary
	// stream never flaps between plans.
	Hysteresis int
	// MinInterval is the minimum number of events between re-optimizations
	// of one component lineage (default 4×CheckEvery).
	MinInterval int
	// MaxPerCheck bounds how many components one check may re-optimize
	// (default 1); the rest stay triggered and go first at the next check.
	MaxPerCheck int
	// MaxReopts caps the total number of drift re-optimizations over the
	// session's lifetime; 0 means unlimited — the re-optimization budget.
	MaxReopts int
	// WarmupEvents suppresses triggers until this many events were observed
	// (default 2×CheckEvery). The collector additionally requires one full
	// estimation window of data before it reports ready.
	WarmupEvents int
	// Window is the sliding estimation window of the statistics collector;
	// default 4× the largest registered pattern window.
	Window Time
}

func (c AdaptiveSessionConfig) withDefaults() AdaptiveSessionConfig {
	if c.CheckEvery <= 0 {
		c.CheckEvery = 2048
	}
	if c.Threshold <= 0 {
		c.Threshold = 0.25
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 2
	}
	if c.MinInterval <= 0 {
		c.MinInterval = 4 * c.CheckEvery
	}
	if c.MaxPerCheck <= 0 {
		c.MaxPerCheck = 1
	}
	if c.WarmupEvents <= 0 {
		c.WarmupEvents = 2 * c.CheckEvery
	}
	return c
}

// defaultEstimationWindow is the collector window when no registered query
// exposes a pattern window to derive one from.
const defaultEstimationWindow = 8 * Second

// sessionAdapt is the session's adaptivity state: the shared statistics
// collector (also serving the private-lane controllers and the StatsPath
// persistence), the drift detector, and the check bookkeeping. The
// collector is concurrency-safe; everything else is guarded by Session.mu.
type sessionAdapt struct {
	enabled   bool // Adaptive was configured (vs StatsPath-only collection)
	cfg       AdaptiveSessionConfig
	statsPath string
	seed      *Stats // loaded from statsPath, nil when absent
	loadErr   error

	col *drift.Collector
	det *drift.Detector

	counter  atomic.Int64 // events observed since Start
	checking atomic.Bool  // at most one drift check in flight
	checks   int64        // drift checks performed (under mu)
	reopts   int64        // drift-triggered re-optimizations (under mu)
	// selCache carries selectivity estimates across checks, refreshed every
	// selRefreshEvery checks (under mu).
	selCache map[string]selEstimate

	// Rate-screen state, touched only by the goroutine that currently owns
	// `checking` (at most one check in flight), so it needs no lock.
	// lastRates is the per-type rate snapshot taken at the most recent full
	// check; curRates is the reused scratch map for the comparison.
	lastRates   map[string]float64
	curRates    map[string]float64
	screenTick  int64
	screenArmed bool // a component was over threshold at the last full check
}

// newSessionAdapt builds the adaptivity state at NewSession time: the
// configuration is resolved and the statistics seed (if any) loaded; the
// collector itself waits until Start, when the registered patterns fix the
// estimation window.
func newSessionAdapt(cfg SessionConfig) *sessionAdapt {
	if cfg.Adaptive == nil && cfg.StatsPath == "" {
		return nil
	}
	a := &sessionAdapt{statsPath: cfg.StatsPath}
	if cfg.Adaptive != nil {
		a.enabled = true
		a.cfg = cfg.Adaptive.withDefaults()
	}
	if a.statsPath != "" {
		f, err := os.Open(a.statsPath)
		switch {
		case os.IsNotExist(err):
			// First run: plan from per-query stats (or neutral priors).
		case err != nil:
			a.loadErr = fmt.Errorf("cep: session stats: %w", err)
		default:
			st, lerr := LoadStats(f)
			f.Close()
			if lerr != nil {
				a.loadErr = fmt.Errorf("cep: session stats %q: %w", a.statsPath, lerr)
			} else {
				a.seed = st
			}
		}
	}
	return a
}

// initLocked creates the collector (and, when adaptivity is enabled, the
// detector) once the query set is known. The caller holds mu.
func (s *Session) initAdaptLocked() {
	a := s.adapt
	if a == nil || a.col != nil {
		return
	}
	window := a.cfg.Window
	if window <= 0 {
		for _, q := range s.queries {
			if q.rt != nil && 4*q.rt.pattern.Window > window {
				window = 4 * q.rt.pattern.Window
			}
		}
		if window <= 0 {
			window = defaultEstimationWindow
		}
	}
	var warmup int64
	if a.enabled {
		warmup = int64(a.cfg.WarmupEvents)
	}
	a.col = drift.NewCollector(window, warmup)
	if a.enabled {
		a.det = drift.NewDetector(drift.Config{
			Threshold:   a.cfg.Threshold,
			Hysteresis:  a.cfg.Hysteresis,
			MinInterval: int64(a.cfg.MinInterval),
			Warmup:      int64(a.cfg.WarmupEvents),
			Budget:      int64(a.cfg.MaxReopts),
		})
	}
}

// rateScreenBand is the per-type rate ratio beyond which the cheap drift
// screen escalates to a full check. Windowed rate estimates on a stationary
// stream wobble by a few percent; a 1.2x move is far outside that noise yet
// far inside any shift worth re-planning for (the scenario shifts are 10x+).
const rateScreenBand = 1.2

// ratesMoved reports whether any type's rate moved beyond rateScreenBand
// between the two snapshots. A type present only in cur (first arrivals of
// a new type) always counts as moved; the collector's type set never
// shrinks, so cur covers every key of old.
func ratesMoved(old, cur map[string]float64) bool {
	for typ, r := range cur {
		o := old[typ]
		if o == 0 || r == 0 {
			if o != r {
				return true
			}
			continue
		}
		if ratio := r / o; ratio > rateScreenBand || ratio*rateScreenBand < 1 {
			return true
		}
	}
	return false
}

// observeBatchAdapt feeds one submitted batch to the collector — one
// ObserveBatch call and one counter advance — and runs a drift check when
// the batch crossed a CheckEvery boundary: at most one check per batch
// however many boundaries it crossed, and none while another submitter's
// check is running.
func (s *Session) observeBatchAdapt(evs []*Event) {
	a := s.adapt
	if a == nil || a.col == nil || len(evs) == 0 {
		return
	}
	a.col.ObserveBatch(evs)
	if !a.enabled {
		return
	}
	n := a.counter.Add(int64(len(evs)))
	every := int64(a.cfg.CheckEvery)
	if n/every == (n-int64(len(evs)))/every {
		return
	}
	if !a.checking.CompareAndSwap(false, true) {
		return
	}
	defer a.checking.Store(false)
	s.adaptCheck(n)
}

// adaptCheck is one drift check: every live sharing component's running
// trees are re-priced under the collector's current measurements and
// compared against a fresh replan; components whose drift score clears the
// detector's hysteresis are re-optimized, most-drifted first, at most
// MaxPerCheck per check.
func (s *Session) adaptCheck(pos int64) {
	a := s.adapt
	if !a.col.Ready() {
		return
	}
	// Rate screen: a full check re-prices every live component's trees and
	// generates a fresh candidate plan — planner work that is pure waste on
	// a stationary stream. The detector's score is driven entirely by the
	// collector's measurements, so when no type's windowed rate has moved
	// beyond rateScreenBand since the last full check the answer is known
	// cheaply. Every selRefreshEvery-th check runs in full regardless (so
	// drift visible only in selectivities — steady rates, changed
	// correlations — is still caught, at a coarser cadence), and screening
	// disengages entirely while any component sits over threshold, so the
	// hysteresis count never stalls between a shift and its splice.
	a.screenTick++
	full := a.screenArmed || a.lastRates == nil || (a.screenTick-1)%selRefreshEvery == 0
	if !full {
		a.curRates = a.col.Rates(a.curRates)
		full = ratesMoved(a.lastRates, a.curRates)
	}
	if !full {
		s.mu.Lock()
		if s.started && !s.closed {
			a.checks++
		}
		s.mu.Unlock()
		return
	}
	a.lastRates = a.col.Rates(a.lastRates)
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.started || s.closed {
		return
	}
	a.checks++

	comps, order := s.liveComponentsLocked()
	live := make(map[int]bool, len(comps))
	for id := range comps {
		live[id] = true
	}
	a.det.Retain(live)

	type candidate struct {
		comp  int
		score float64
	}
	var cands []candidate
	if a.selCache == nil || (a.screenTick-1)%selRefreshEvery == 0 {
		a.selCache = map[string]selEstimate{}
	}
	snap := newSnapCache(a.col, a.selCache)
	armed := false
	for _, id := range order {
		stale, freshCost, ok := s.compCostsLocked(comps[id], snap)
		if !ok {
			continue
		}
		dec := a.det.Check(id, stale, freshCost, pos)
		armed = armed || dec.Consecutive > 0
		if dec.Trigger {
			cands = append(cands, candidate{comp: id, score: dec.Score})
		}
	}
	a.screenArmed = armed
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].comp < cands[j].comp
	})
	if len(cands) > a.cfg.MaxPerCheck {
		cands = cands[:a.cfg.MaxPerCheck]
	}
	for _, cd := range cands {
		// Re-check the budget per splice: the Check calls above all saw the
		// pre-check total, but each splice spends from it.
		if a.cfg.MaxReopts > 0 && a.det.Reopts() >= int64(a.cfg.MaxReopts) {
			break
		}
		if len(s.componentLanesLocked(cd.comp)) == 0 {
			continue // pulled in (and retired) by an earlier re-opt of this check
		}
		if err := s.driftReoptLocked(cd.comp, snap, pos, cd.score); err != nil {
			s.pool.RecordErr(fmt.Errorf("cep: drift re-optimization: %w", err))
			return
		}
	}
}

// liveComponentsLocked groups the live evaluation-DAG lanes by sharing
// component, returning the component ids in ascending order. The caller
// holds mu.
func (s *Session) liveComponentsLocked() (map[int][]*sessionLane, []int) {
	comps := map[int][]*sessionLane{}
	var order []int
	for _, l := range *s.laneTab.Load() {
		if l.retired || l.eng == nil {
			continue
		}
		if _, ok := comps[l.comp]; !ok {
			order = append(order, l.comp)
		}
		comps[l.comp] = append(comps[l.comp], l)
	}
	sort.Ints(order)
	return comps, order
}

// selRefreshEvery is the number of drift checks between selectivity
// re-estimations. Rates — the primary drift signal, and cheap to read —
// refresh every check; the reservoir-sampled selectivities (the expensive
// part of a check) are carried across checks and refreshed every Nth, so
// a stationary stream pays almost nothing for monitoring while rate-drift
// detection latency is unaffected.
const selRefreshEvery = 4

// selEstimate is one cached selectivity measurement.
type selEstimate struct {
	v  float64
	ok bool
}

// snapCache amortizes statistics reads across the checked components: the
// rate table is snapshotted once per check, and each pairwise selectivity
// is evaluated once per (condition, resolved types) — shared across
// queries with the same predicate shape and, via the session-held cache,
// across checks until the next refresh.
type snapCache struct {
	col   *drift.Collector
	rates *Stats
	sel   map[string]selEstimate
}

func newSnapCache(col *drift.Collector, sel map[string]selEstimate) *snapCache {
	return &snapCache{col: col, rates: col.Snapshot(nil, nil), sel: sel}
}

// statsFor assembles fresh Stats for one query: the shared rate table plus
// memoized selectivities of the query's conditions.
func (sc *snapCache) statsFor(q *sessionQuery) *Stats {
	st := stats.New()
	st.Rates = sc.rates.Rates // read-only share of the per-check snapshot
	alias := stats.AliasTypes(q.rt.pattern)
	for _, c := range q.rt.pattern.Conds {
		key := c.String()
		for _, al := range c.Aliases() {
			key += "|" + alias[al]
		}
		r, hit := sc.sel[key]
		if !hit {
			r.v, r.ok = sc.col.Selectivity(c, alias)
			sc.sel[key] = r
		}
		if r.ok {
			st.SetSelectivity(c, r.v)
		}
	}
	return st
}

// compCostsLocked prices one component under the collector's current
// measurements. Both sides are evaluated with the optimizer's own
// shared-plan objective (mqo.SharedTreeCost — distinct sub-joins paid
// once, fan-out term per extra consumer): stale prices the members'
// RUNNING trees (the possibly-restructured shapes actually evaluated),
// fresh prices freshly replanned private-optimal trees. Pricing the stale
// side share-aware is what keeps a stationary stream from flapping: the
// per-tree inflation the optimizer accepted for a sharing win is exactly
// offset by the sharing discount, and since the optimizer only ever
// improves this objective over the private-optimal starting point, the
// post-re-optimization score under unchanged statistics is ≤ 0. ok is
// false when any member cannot be priced (no runtime config, or the
// pattern's statistics shape changed).
func (s *Session) compCostsLocked(lanes []*sessionLane, snap *snapCache) (stale, fresh float64, ok bool) {
	var staleItems, freshItems []mqo.TreePrice
	priced := map[string]bool{}
	for _, l := range lanes {
		for name, q := range l.members {
			if priced[name] {
				continue // partition siblings repeat the member set
			}
			priced[name] = true
			if q.rt == nil || q.qc == nil {
				return 0, 0, false
			}
			fs := snap.statsFor(q)
			sp := q.rt.plan.Simple[0]
			ps := stats.For(sp.Compiled.Source, fs)
			if ps.N() != sp.Stats.N() {
				return 0, 0, false
			}
			cur := l.info.trees[name]
			if cur == nil {
				if cur = sp.Tree; cur == nil {
					cur = plan.LeftDeep(sp.Order)
				}
			}
			// The fresh side only needs a cost anchor, not an executable
			// plan: the ZStream topology search over the fresh statistics is
			// the cheap stand-in for a full replan (no pattern compilation);
			// the actual re-optimization re-plans with the query's own
			// configured planner.
			ft := core.ZStreamOrd{}.Tree(ps, cost.DefaultModel())
			if ft == nil {
				return 0, 0, false
			}
			price := mqo.TreePrice{Sigs: q.mqoSigs(), PS: ps}
			price.Tree = cur
			staleItems = append(staleItems, price)
			price.Tree = ft
			freshItems = append(freshItems, price)
		}
	}
	return mqo.SharedTreeCost(staleItems, 0), mqo.SharedTreeCost(freshItems, 0), true
}

// driftReoptLocked re-optimizes one drifted component. The affected lane
// set is widened to every lane that could share a sub-join with a member
// (so a newly profitable common sub-join can form across what were
// separate lanes), then EVERY member of every affected lane is re-planned
// under the fresh measurements — one statistics epoch for the whole
// re-optimization, so the sharing decision never prices one side of a
// candidate sub-join at registration-time rates — and the standard churn
// splice rebuilds the sharing structure with full state adoption. The
// caller holds mu. score is the measured drift score that triggered the
// re-optimization; it lands in the journal entry so operators can audit how
// far past Threshold each splice actually was.
func (s *Session) driftReoptLocked(comp int, snap *snapCache, pos int64, score float64) error {
	a := s.adapt
	lanes := s.componentLanesLocked(comp)
	if len(lanes) == 0 {
		return nil
	}

	// Affected set: the component itself plus every lane whose members could
	// share a sub-join with it under any canonical key.
	var memberKeys []string
	for _, l := range lanes {
		for _, q := range l.members {
			memberKeys = append(memberKeys, q.shareKeys...)
		}
	}
	affected := s.affectedLanesLocked(memberKeys)
	inSet := make(map[*sessionLane]bool, len(affected))
	for _, l := range affected {
		inSet[l] = true
	}
	for _, l := range lanes {
		if !inSet[l] {
			affected = append(affected, l)
		}
	}

	// Re-plan every affected member under the measurements (all fallible
	// work before the first mutation).
	type swapIn struct {
		q  *sessionQuery
		rt *Runtime
		qc *QueryConfig
	}
	var swaps []swapIn
	planned := map[string]bool{}
	for _, l := range affected {
		for _, q := range l.members {
			if planned[q.name] {
				continue // partition siblings repeat the member set
			}
			planned[q.name] = true
			if q.qc == nil {
				return fmt.Errorf("query %q: no declarative config", q.name)
			}
			rtCfg := *q.qc
			rtCfg.Stats = snap.statsFor(q)
			nrt, err := NewFromConfig(rtCfg)
			if err != nil {
				return fmt.Errorf("query %q: %w", q.name, err)
			}
			swaps = append(swaps, swapIn{q: q, rt: nrt, qc: &rtCfg})
		}
	}
	oldComps := map[int]bool{}
	for _, l := range affected {
		oldComps[l.comp] = true
	}

	// Quiesce just the affected lanes and splice.
	s.intakeMu.Lock()
	defer s.intakeMu.Unlock()
	idxs := make([]int, len(affected))
	for i, l := range affected {
		idxs[i] = l.idx
	}
	if err := sessErr(s.pool.DrainLanes(idxs)); err != nil {
		return err
	}
	for _, sw := range swaps {
		sw.q.rt.Close()
		sw.q.rt = sw.rt
		sw.q.det = sw.rt
		sw.q.qc = sw.qc
		sw.q.sigs = nil // fresh plan, fresh canonical-signature cache
	}
	var input []mqo.Query
	inInput := map[string]bool{}
	for _, l := range affected {
		for _, m := range l.members {
			if !inInput[m.name] {
				inInput[m.name] = true
				input = append(input, mqoQuery(m))
			}
		}
	}
	nextBefore := s.nextComp
	if err := s.applySpliceLocked(affected, input); err != nil {
		return err
	}
	var old, fresh []int
	for id := range oldComps {
		old = append(old, id)
	}
	for id := nextBefore; id < s.nextComp; id++ {
		fresh = append(fresh, id)
	}
	a.det.Spliced(old, fresh, pos)
	a.reopts++
	s.tel.recordKV(s.seq.Load(), "drift_reopt",
		kv("comp", comp), kv("lanes", len(affected)), kv("pos", pos),
		kv("score", fmt.Sprintf("%.4f", score)))
	return nil
}

// wrapPrivateAdaptive replaces a private lane's static runtime with a
// re-optimizing controller fed from the session's shared collector, so
// Session-managed private queries adapt to drift too. Engine state is
// swapped (not spliced) on a private replan: in-flight partial matches at
// the swap are discarded, matching the standalone AdaptiveRuntime
// semantics. No-op when adaptivity is off or the query has no declarative
// config (RegisterDetector).
func (s *Session) wrapPrivateAdaptive(q *sessionQuery) error {
	a := s.adapt
	if a == nil || !a.enabled || q.qc == nil || q.rt == nil {
		return nil
	}
	alg := q.qc.Algorithm
	if alg == "" {
		alg = AlgGreedy
	}
	ctrl, err := adaptive.New(q.rt.pattern, q.qc.Stats, adaptive.Config{
		Planner:       &core.Planner{Algorithm: alg, Strategy: q.qc.Strategy, Alpha: q.qc.LatencyWeight},
		InitialPlan:   q.rt.plan, // planQuery already planned it; don't plan twice
		Source:        a.col,
		CheckEvery:    a.cfg.CheckEvery,
		Threshold:     a.cfg.Threshold,
		WarmupEvents:  a.cfg.WarmupEvents,
		MaxKleeneBase: q.qc.MaxKleeneBase,
	})
	if err != nil {
		return fmt.Errorf("cep: query %q: adaptive wrap: %w", q.name, err)
	}
	q.rt.Close()
	q.det = &AdaptiveRuntime{ctrl: ctrl}
	return nil
}

// measuredStatsLocked folds the collector's current measurements over the
// persisted seed: rates for every observed type, selectivities for every
// registered query's conditions. The caller holds mu.
func (s *Session) measuredStatsLocked() *Stats {
	a := s.adapt
	out := stats.New()
	if a.seed != nil {
		out.DefaultRate = a.seed.DefaultRate
		out.DefaultSel = a.seed.DefaultSel
		out.Merge(a.seed)
	}
	meas := a.col.Snapshot(nil, nil)
	for _, q := range s.queries {
		if q.rt == nil {
			continue
		}
		alias := stats.AliasTypes(q.rt.pattern)
		for _, c := range q.rt.pattern.Conds {
			if sel, ok := a.col.Selectivity(c, alias); ok {
				meas.SetSelectivity(c, sel)
			}
		}
	}
	out.Merge(meas)
	return out
}

// StatsSnapshot returns the statistics measured by the session so far —
// arrival rates over the estimation window plus the registered queries'
// predicate selectivities — overlaid on the StatsPath seed. It returns nil
// when the session collects no statistics (neither SessionConfig.Adaptive
// nor StatsPath configured) or has not started.
func (s *Session) StatsSnapshot() *Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.adapt == nil || s.adapt.col == nil {
		return nil
	}
	return s.measuredStatsLocked()
}

// saveStats persists the measured statistics to StatsPath (write to a
// temporary file, then rename). Called from shutdown; a session that never
// observed an event keeps the previous file.
func (s *Session) saveStats() error {
	a := s.adapt
	if a == nil || a.statsPath == "" || a.col == nil || a.col.Events() == 0 {
		return nil
	}
	s.mu.Lock()
	st := s.measuredStatsLocked()
	s.mu.Unlock()
	tmp := a.statsPath + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("cep: session stats: %w", err)
	}
	if err := st.Save(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("cep: session stats: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cep: session stats: %w", err)
	}
	if err := os.Rename(tmp, a.statsPath); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("cep: session stats: %w", err)
	}
	return nil
}

// DriftReport summarizes the session's drift-adaptivity activity: collector
// coverage, checks and re-optimizations performed, and the per-component
// drift state at the last check. Private adaptive lanes (whose controllers
// replan independently) are reported only after the session has shut down,
// when their worker-owned counters are safe to read.
type DriftReport struct {
	// Events is the number of events the collector has observed.
	Events int64
	// Checks counts the drift checks performed; Reopts the drift-triggered
	// re-optimizations (a subset of Generation, which also counts query
	// churn).
	Checks int64
	Reopts int64
	// Generation is the session's total re-optimization count (shared with
	// ShareReport.Generation).
	Generation int
	// Components describes each live sharing component's drift state.
	Components []DriftComponentReport
	// Private lists the private adaptive lanes' replan counters; populated
	// only after Flush or Close.
	Private []PrivateAdaptiveReport
}

// DriftComponentReport is one sharing component's drift state as of the
// last check.
type DriftComponentReport struct {
	// Members are the component's query names, sorted.
	Members []string
	// Score is the last measured drift score (stale/fresh − 1); StaleCost
	// and FreshCost are the costs behind it.
	Score     float64
	StaleCost float64
	FreshCost float64
	// Consecutive counts the over-threshold checks in a row.
	Consecutive int
	// Reopts counts the drift re-optimizations of this component's lineage;
	// LastReoptPos is the stream position (submitted events) of the latest.
	Reopts       int
	LastReoptPos int64
	// Rates is the measured arrival-rate snapshot of the member queries'
	// event types.
	Rates map[string]float64
}

// PrivateAdaptiveReport is one private adaptive lane's activity.
type PrivateAdaptiveReport struct {
	Query   string
	Replans int64
	Checks  int64
}

// DriftReport returns a snapshot of the drift-adaptivity state, or nil when
// SessionConfig.Adaptive is not configured or the session has not started.
func (s *Session) DriftReport() *DriftReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	a := s.adapt
	if a == nil || !a.enabled || a.col == nil {
		return nil
	}
	rep := &DriftReport{
		Events:     a.col.Events(),
		Checks:     a.checks,
		Reopts:     a.reopts,
		Generation: s.reoptGen,
	}
	comps, order := s.liveComponentsLocked()
	for _, id := range order {
		cr := DriftComponentReport{Rates: map[string]float64{}}
		for _, l := range comps[id] {
			for name, q := range l.members {
				cr.Members = append(cr.Members, name)
				if q.rt != nil {
					for _, typ := range q.rt.plan.Simple[0].Stats.Types {
						cr.Rates[typ] = a.col.Rate(typ)
					}
				}
			}
		}
		sort.Strings(cr.Members)
		if st, ok := a.det.Peek(id); ok {
			cr.Score = st.Score
			cr.StaleCost = st.StaleCost
			cr.FreshCost = st.FreshCost
			cr.Consecutive = st.Consecutive
			cr.Reopts = st.Reopts
			cr.LastReoptPos = st.LastReoptPos
		}
		rep.Components = append(rep.Components, cr)
	}
	if s.pool.Joined() {
		for _, q := range s.queries {
			if ar, ok := q.det.(*AdaptiveRuntime); ok && q.qc != nil {
				st := ar.ctrl.Stats()
				rep.Private = append(rep.Private, PrivateAdaptiveReport{
					Query: q.name, Replans: st.Replans, Checks: st.Checks,
				})
			}
		}
	}
	return rep
}
