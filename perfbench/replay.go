package main

import (
	"fmt"
	"time"

	cep "repro"
	"repro/internal/core"
	"repro/internal/filterindex"
	"repro/internal/mqo"
	"repro/internal/pool"
	"repro/internal/predicate"
	"repro/internal/stats"
)

// replayAdoptOps is how many churn splices the replay times.
const replayAdoptOps = 4

// treeFallback is how many queries the private-runtime replay runs on a
// workload whose session runs none privately.
const treeFallback = 64

// replay feeds the workload's queries and the first replayEvents events of
// its stream straight into each layer's exported functions, on one
// goroutine, and times every call. It rebuilds the session's lane layout
// the way Session.Start does: mqo groups for the eligible queries, private
// runtimes for the rest. Nothing inside the program is instrumented.
func replay(sp *spec, qs []cep.QueryConfig, seed int64) (map[string]float64, error) {
	out := map[string]float64{}
	evs := newStream(sp, seed).next(sp.replayEvents)
	n := float64(len(evs))

	// internal/stats: the set-up measurement over the history sample.
	sample := history(sp)
	t := time.Now()
	for _, qc := range qs {
		stats.MeasurePattern(sample, qc.Pattern)
	}
	out["stats.measure_ms"] = ms(time.Since(t))

	// internal/core: one plan per query, with the set-up statistics.
	plans := make([]*core.Plan, len(qs))
	t = time.Now()
	for i, qc := range qs {
		pl, err := plan(qc)
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", qc.Name, err)
		}
		plans[i] = pl
	}
	out["core.plan_us_per_query"] = float64(time.Since(t).Nanoseconds()) / 1e3 / float64(len(qs))

	// internal/mqo: the optimizer over the eligible queries.
	var cand []mqo.Query
	var private []int
	for i, pl := range plans {
		if mqo.Eligible(pl, predicate.SkipTillAnyMatch) {
			cand = append(cand, mqo.Query{Name: qs[i].Name, SP: pl.Simple[0]})
		} else {
			private = append(private, i)
		}
	}
	opts := mqo.Options{Partitions: 2}
	t = time.Now()
	groups, err := optimize(cand, opts)
	if err != nil {
		return nil, err
	}
	out["mqo.optimize_ms"] = ms(time.Since(t))

	// internal/filterindex: one subscription per engine intake and per
	// private position, as the session declares them.
	var subs []filterindex.Sub
	for lane, g := range groups {
		for _, es := range g.Engine.Subscriptions() {
			subs = append(subs, filterindex.Sub{Lane: lane, Slot: es.Slot, Type: es.Type, Conds: es.Conds, Residual: es.Residual})
		}
	}
	for k, qi := range private {
		for _, simple := range plans[qi].Simple {
			c := simple.Compiled
			for pos := 0; pos < c.N; pos++ {
				sub := filterindex.Sub{Lane: len(groups) + k, Slot: -1, Type: c.Types[pos]}
				for _, u := range c.Preds.Unaries(pos) {
					if u.HasCond {
						sub.Conds = append(sub.Conds, u.Cond)
					} else {
						sub.Residual = append(sub.Residual, u.Fn)
					}
				}
				subs = append(subs, sub)
			}
		}
	}
	lanes := len(groups) + len(private)
	t = time.Now()
	idx := filterindex.Build(subs, nil)
	out["filterindex.build_ms"] = ms(time.Since(t))

	// Route every batch, keeping the lanes each one reaches for the pool.
	var hits []filterindex.Hit
	var routed [][]int32
	seen := make([]int, lanes)
	var hitTime time.Duration
	for b := 0; b < len(evs); b += batchSize {
		var touched []int32
		for _, e := range evs[b:min(b+batchSize, len(evs))] {
			t = time.Now()
			hits = idx.AppendHits(e, hits[:0])
			hitTime += time.Since(t)
			for _, h := range hits {
				if seen[h.Lane] != b+1 {
					seen[h.Lane] = b + 1
					touched = append(touched, h.Lane)
				}
			}
		}
		routed = append(routed, touched)
	}
	out["filterindex.hits_ns_per_event"] = float64(hitTime.Nanoseconds()) / n

	// internal/pool: hand each batch to the lanes it reaches, with workers
	// that do nothing, so the time is the handoff alone.
	handoff, err := poolHandoff(lanes, routed)
	if err != nil {
		return nil, err
	}
	out["pool.handoff_ns_per_item"] = handoff

	// internal/mqo engines: every group processes every batch.
	var engTime time.Duration
	for b := 0; b < len(evs); b += batchSize {
		batch := evs[b:min(b+batchSize, len(evs))]
		t = time.Now()
		for _, g := range groups {
			g.Engine.ProcessBatch(batch, uint64(b+1))
		}
		engTime += time.Since(t)
	}
	var est mqo.EngineStats
	for _, g := range groups {
		s := g.Engine.Stats()
		est.Created += s.Created
		est.Probes += s.Probes
		est.NegKilled += s.NegKilled
		est.Matches += s.Matches
		est.PeakPartial += s.PeakPartial
	}
	out["mqo.engine_ns_per_event"] = float64(engTime.Nanoseconds()) / n
	out["mqo.probes_per_event"] = float64(est.Probes) / n
	out["mqo.matches_per_kprobe"] = 1000 * frac(float64(est.Matches), float64(est.Probes))
	out["mqo.created_per_event"] = float64(est.Created) / n
	out["mqo.peak_partial"] = float64(est.PeakPartial)
	out["mqo.neg_killed_per_event"] = float64(est.NegKilled) / n
	adopt, err := adoptSplices(cand, groups, opts, uint64(len(evs)+1))
	if err != nil {
		return nil, err
	}
	out["mqo.adopt_ms"] = adopt

	// internal/tree through cep.Runtime: the private queries, or the first
	// treeFallback queries when the session runs none privately.
	treeQs := private
	if len(treeQs) == 0 {
		for i := range min(len(qs), treeFallback) {
			treeQs = append(treeQs, i)
		}
	}
	treeNS, peak, err := treeReplay(qs, treeQs, evs)
	if err != nil {
		return nil, err
	}
	out["tree.engine_ns_per_event"] = treeNS / n
	out["tree.peak_partial"] = float64(peak)
	return out, nil
}

// optimize lowers the eligible queries onto lanes as Session.Start does:
// the optimizer's groups plus a singleton DAG for each query it left
// private.
func optimize(cand []mqo.Query, opts mqo.Options) ([]mqo.Group, error) {
	if len(cand) < 2 {
		var groups []mqo.Group
		for _, q := range cand {
			g, err := mqo.Single(q)
			if err != nil {
				return nil, err
			}
			groups = append(groups, g)
		}
		return groups, nil
	}
	res, err := mqo.Optimize(cand, opts)
	if err != nil {
		return nil, err
	}
	groups := res.Groups
	byName := map[string]mqo.Query{}
	for _, q := range cand {
		byName[q.Name] = q
	}
	for _, name := range res.Private {
		g, err := mqo.Single(byName[name])
		if err != nil {
			return nil, err
		}
		groups = append(groups, g)
	}
	return groups, nil
}

func poolHandoff(lanes int, routed [][]int32) (float64, error) {
	if lanes == 0 {
		return 0, nil
	}
	p := pool.New(pool.Hooks[int]{Work: func(int, int) {}})
	for i := 0; i < lanes; i++ {
		p.AddLane(256)
	}
	if err := p.Start(); err != nil {
		return 0, err
	}
	var pairs []pool.Grouped[int]
	items := 0
	t := time.Now()
	for b, touched := range routed {
		pairs = pairs[:0]
		for _, l := range touched {
			pairs = append(pairs, pool.Grouped[int]{Lane: int(l), Item: b})
		}
		if err := p.SendGrouped(pairs); err != nil {
			return 0, err
		}
		items += len(pairs)
	}
	if err := p.Drain(); err != nil {
		return 0, err
	}
	el := time.Since(t)
	if err := p.Shutdown(); err != nil {
		return 0, err
	}
	return float64(el.Nanoseconds()) / float64(max(items, 1)), nil
}

// adoptSplices replays churn on the fed engines: it adds a copy of an
// eligible query to its sharing component, re-optimizes the component and
// times the successors' AdoptFrom, then removes the copy the same way. It
// returns the median AdoptFrom time of one splice, in milliseconds.
func adoptSplices(cand []mqo.Query, groups []mqo.Group, opts mqo.Options, seq uint64) (float64, error) {
	if len(cand) == 0 {
		return 0, nil
	}
	byName := map[string]mqo.Query{}
	for _, q := range cand {
		byName[q.Name] = q
	}
	var times []float64
	for op := 0; op < replayAdoptOps; op++ {
		src := cand[op*7%len(cand)]
		for _, remove := range []bool{false, true} {
			cp := mqo.Query{Name: src.Name + "~copy", SP: src.SP, Since: seq}
			target := src.Name
			var affected []int
			var input []mqo.Query
			if !remove {
				input = append(input, cp)
			}
			seen := map[string]bool{cp.Name: true}
			for gi, g := range groups {
				member := false
				for _, m := range g.Members {
					member = member || m == target
				}
				if !member {
					continue
				}
				affected = append(affected, gi)
				for _, m := range g.Members {
					if !seen[m] {
						seen[m] = true
						input = append(input, byName[m])
					}
				}
			}
			next, err := optimize(input, opts)
			if err != nil {
				return 0, err
			}
			olds := make([]*mqo.Engine, len(affected))
			for i, gi := range affected {
				olds[i] = groups[gi].Engine
			}
			t := time.Now()
			for _, g := range next {
				g.Engine.AdoptFrom(olds, seq)
			}
			times = append(times, ms(time.Since(t)))
			kept := groups[:0:0]
			for gi, g := range groups {
				if !contains(affected, gi) {
					kept = append(kept, g)
				}
			}
			for _, o := range olds {
				o.Close()
			}
			groups = append(kept, next...)
		}
	}
	return median(times), nil
}

func contains(xs []int, x int) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// treeReplay runs the chosen queries on single-query runtimes over evs and
// returns the time spent in ProcessBatch and the peak summed partial-match
// count after any batch.
func treeReplay(qs []cep.QueryConfig, which []int, evs []*cep.Event) (float64, int, error) {
	rts := make([]*cep.Runtime, len(which))
	for k, qi := range which {
		qc := qs[qi]
		qc.OnMatch = nil
		rt, err := cep.NewFromConfig(qc)
		if err != nil {
			return 0, 0, fmt.Errorf("tree replay %s: %w", qc.Name, err)
		}
		rts[k] = rt
	}
	var el time.Duration
	peak := 0
	for b := 0; b < len(evs); b += batchSize {
		batch := evs[b:min(b+batchSize, len(evs))]
		t := time.Now()
		for _, rt := range rts {
			if _, err := rt.ProcessBatch(batch); err != nil {
				return 0, 0, err
			}
		}
		el += time.Since(t)
		live := 0
		for _, rt := range rts {
			p, _ := rt.State()
			live += p
		}
		peak = max(peak, live)
	}
	for _, rt := range rts {
		_ = rt.Close() // Close never fails; the replay is done with the runtime
	}
	return float64(el.Nanoseconds()), peak, nil
}
