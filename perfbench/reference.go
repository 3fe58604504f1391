package main

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	cep "repro"
	"repro/internal/core"
	"repro/internal/pattern"
	"repro/internal/predicate"
)

// refChunk is how many regenerated events the reference routes at a time.
const refChunk = 1 << 16

// intake is one term position of one query: the event type it accepts and
// the unary filters an event must pass to bind there.
type intake struct {
	q   int
	fns []predicate.UnaryFn
}

// typeRoute holds a type's intakes: those with a constant equality are
// looked up by attribute value, the rest are scanned.
type typeRoute struct {
	scan []intake
	eq   map[string]map[float64][]intake
}

// refRouter hands each query only the events that can bind to one of its
// term positions. Under skip-till-any-match an event that binds nowhere in
// a pattern cannot change its matches, so each single-query runtime sees a
// stream with the same match set at a fraction of the cost. The smoke test
// checks this against unfiltered runtimes.
type refRouter struct {
	byType map[string]*typeRoute
}

func newRefRouter(qs []cep.QueryConfig) (*refRouter, error) {
	rt := &refRouter{byType: map[string]*typeRoute{}}
	for qi, qc := range qs {
		pl, err := plan(qc)
		if err != nil {
			return nil, fmt.Errorf("plan %s: %w", qc.Name, err)
		}
		for _, sp := range pl.Simple {
			c := sp.Compiled
			for pos := 0; pos < c.N; pos++ {
				tr := rt.byType[c.Types[pos]]
				if tr == nil {
					tr = &typeRoute{eq: map[string]map[float64][]intake{}}
					rt.byType[c.Types[pos]] = tr
				}
				in := intake{q: qi}
				attr, val, keyed := "", 0.0, false
				for _, u := range c.Preds.Unaries(pos) {
					in.fns = append(in.fns, u.Fn)
					if !keyed && u.HasCond {
						attr, val, keyed = constEq(u.Cond)
					}
				}
				if !keyed {
					tr.scan = append(tr.scan, in)
					continue
				}
				if tr.eq[attr] == nil {
					tr.eq[attr] = map[float64][]intake{}
				}
				tr.eq[attr][val] = append(tr.eq[attr][val], in)
			}
		}
	}
	return rt, nil
}

// plan plans qc the way cep.NewFromConfig does.
func plan(qc cep.QueryConfig) (*core.Plan, error) {
	alg, st := qc.Algorithm, qc.Stats
	if alg == "" {
		alg = cep.AlgGreedy
	}
	if st == nil {
		st = cep.NewStats()
	}
	return (&core.Planner{Algorithm: alg, Strategy: qc.Strategy}).Plan(qc.Pattern, st)
}

// constEq recognises "alias.attr = constant" in either operand order.
func constEq(c pattern.Condition) (attr string, val float64, ok bool) {
	if c.Op != pattern.Eq {
		return "", 0, false
	}
	switch {
	case !c.Left.IsConst() && c.Right.IsConst():
		return c.Left.Attr, c.Right.Const, true
	case c.Left.IsConst() && !c.Right.IsConst():
		return c.Right.Attr, c.Left.Const, true
	}
	return "", 0, false
}

// route appends e to the event list of every query it can bind in, once.
func (rt *refRouter) route(e *cep.Event, per [][]*cep.Event) {
	tr := rt.byType[e.Type]
	if tr == nil {
		return
	}
	add := func(ins []intake) {
		for _, in := range ins {
			l := per[in.q]
			if len(l) > 0 && l[len(l)-1] == e {
				continue
			}
			if passes(in.fns, e) {
				per[in.q] = append(l, e)
			}
		}
	}
	add(tr.scan)
	for attr, byVal := range tr.eq {
		if v, ok := e.Attr(attr); ok {
			add(byVal[v])
		}
	}
}

func passes(fns []predicate.UnaryFn, e *cep.Event) bool {
	for _, f := range fns {
		if !f(e) {
			return false
		}
	}
	return true
}

// keyAttr returns the attribute a pattern is chained on: every term of a
// flat pattern is linked to the others by "x.attr = y.attr" conditions on
// that one attribute. All events of a match then share its value, so the
// pattern's matches are the union of its matches on each value's
// sub-stream, and the reference can run one runtime per value.
func keyAttr(p *pattern.Pattern) (string, bool) {
	var aliases []string
	for _, t := range p.Terms {
		if t.Event == nil {
			return "", false
		}
		aliases = append(aliases, t.Event.Alias)
	}
	links := map[string][][2]string{}
	for _, c := range p.Conds {
		if c.Op == pattern.Eq && !c.Left.IsConst() && !c.Right.IsConst() && c.Left.Attr == c.Right.Attr {
			links[c.Left.Attr] = append(links[c.Left.Attr], [2]string{c.Left.Alias, c.Right.Alias})
		}
	}
	attrs := make([]string, 0, len(links))
	for a := range links {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, attr := range attrs {
		reach := map[string]bool{aliases[0]: true}
		for grew := true; grew; {
			grew = false
			for _, l := range links[attr] {
				if reach[l[0]] != reach[l[1]] {
					reach[l[0]], reach[l[1]] = true, true
					grew = true
				}
			}
		}
		chained := true
		for _, a := range aliases {
			chained = chained && reach[a]
		}
		if chained {
			return attr, true
		}
	}
	return "", false
}

// refQuery is one query's reference: a single runtime, or one runtime per
// value of the attribute the pattern is chained on.
type refQuery struct {
	qc    cep.QueryConfig
	attr  string
	whole *cep.Runtime
	byKey map[float64]*cep.Runtime
	part  map[float64][]*cep.Event
}

func (q *refQuery) process(evs []*cep.Event) error {
	if q.whole != nil {
		_, err := q.whole.ProcessBatch(evs)
		return err
	}
	for k, l := range q.part {
		q.part[k] = l[:0]
	}
	for _, e := range evs {
		v, _ := e.Attr(q.attr)
		q.part[v] = append(q.part[v], e)
	}
	for k, l := range q.part {
		if len(l) == 0 {
			continue
		}
		rt := q.byKey[k]
		if rt == nil {
			var err error
			if rt, err = cep.NewFromConfig(q.qc); err != nil {
				return err
			}
			q.byKey[k] = rt
		}
		if _, err := rt.ProcessBatch(l); err != nil {
			return err
		}
	}
	return nil
}

func (q *refQuery) flush() (int64, error) {
	rts := []*cep.Runtime{q.whole}
	if q.whole == nil {
		rts = rts[:0]
		for _, rt := range q.byKey {
			rts = append(rts, rt)
		}
	}
	var n int64
	for _, rt := range rts {
		if _, err := rt.Flush(); err != nil {
			return 0, err
		}
		n += rt.Matches()
	}
	return n, nil
}

// reference regenerates the first total events of the seed's stream and
// returns each query's match count from single-query runtimes
// (cep.NewFromConfig), flushed at the end of the stream. With filter set,
// each query is fed only the events that can bind in its pattern, and a
// query chained on one attribute runs one runtime per value of it. The
// queries are split over refWorkers goroutines, each regenerating the
// stream for its share.
func reference(sp *spec, qs []cep.QueryConfig, seed, total int64, filter bool) ([]int64, error) {
	out := make([]int64, len(qs))
	errs := make([]error, refWorkers)
	var wg sync.WaitGroup
	for w := 0; w < refWorkers; w++ {
		lo, hi := w*len(qs)/refWorkers, (w+1)*len(qs)/refWorkers
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = referenceShare(sp, qs[lo:hi], seed, total, filter, out[lo:hi])
		}()
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// refWorkers is how many goroutines compute the reference.
const refWorkers = 2

func referenceShare(sp *spec, qs []cep.QueryConfig, seed, total int64, filter bool, out []int64) error {
	refs := make([]*refQuery, len(qs))
	for i, qc := range qs {
		qc.OnMatch = nil
		q := &refQuery{qc: qc}
		if attr, ok := keyAttr(qc.Pattern); ok && filter {
			q.attr, q.byKey, q.part = attr, map[float64]*cep.Runtime{}, map[float64][]*cep.Event{}
		} else {
			rt, err := cep.NewFromConfig(qc)
			if err != nil {
				return fmt.Errorf("reference %s: %w", qc.Name, err)
			}
			q.whole = rt
		}
		refs[i] = q
	}
	var router *refRouter
	if filter {
		var err error
		if router, err = newRefRouter(qs); err != nil {
			return err
		}
	}
	st := newStream(sp, seed)
	per := make([][]*cep.Event, len(qs))
	for done := int64(0); done < total; {
		evs := st.next(int(min(refChunk, total-done)))
		done += int64(len(evs))
		for i := range per {
			if router == nil {
				per[i] = evs
			} else {
				per[i] = per[i][:0]
			}
		}
		if router != nil {
			for _, e := range evs {
				router.route(e, per)
			}
		}
		for i, q := range refs {
			if len(per[i]) == 0 {
				continue
			}
			if err := q.process(per[i]); err != nil {
				return fmt.Errorf("reference %s: %w", qs[i].Name, err)
			}
		}
	}
	for i, q := range refs {
		n, err := q.flush()
		if err != nil {
			return fmt.Errorf("reference %s: %w", qs[i].Name, err)
		}
		out[i] = n
	}
	return nil
}
