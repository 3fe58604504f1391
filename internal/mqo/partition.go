package mqo

import (
	"fmt"
	"sort"

	"repro/internal/event"
)

// Key-partitioned shared evaluation (after Dossinger & Michel's partitioned
// multi-way stream joins): when every member of a sharing component chains
// its positive positions together with equi-joins on one attribute, a
// complete match binds the same attribute value on every constituent — so
// hashing events by that value routes each potential match wholly into one
// of P partition lanes. Each lane runs a full copy of the component's DAG
// over a disjoint slice of the key space: shared sub-joins are computed once
// per partition (no recomputation across lanes, unlike the GroupWorkers
// split), matches fan out to consuming roots locally, and no partial match
// ever crosses a lane boundary.

// partFamily is the identity token stamped on the P sibling engines of one
// partitioned component at build time. AdoptFrom uses pointer identity to
// recognize that several predecessor engines are slices of one logical
// buffer (union them) rather than independent alternatives (pick one).
type partFamily struct{ _ byte }

// PartitionBucket maps an event to its partition lane: the hash bucket of
// the key it carries for the equi-join attribute key reads, in [0, parts).
// The router and the engine-side gate must agree exactly, so both call
// this one function. An event with no key (missing attribute or NaN, which
// Eq never pairs) hashes as key 0 — consistently, so such events still
// land on exactly one lane, where their equality predicates fail like
// anywhere else.
func PartitionBucket(ev *event.Event, key *KeyCol, parts int) int {
	h, _ := key.Read(ev)
	// splitmix64 finalizer: cheap, well-mixed low bits for the modulo.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int(h % uint64(parts))
}

// partitionKey derives the hash-partition attribute of a sharing component,
// or reports that none exists (the caller falls back to the broadcast
// GroupWorkers split). An attribute qualifies when every member's positive
// planning positions are connected by explicit `l.A = r.A` pair predicates
// on it — the condition under which all constituents of any complete match
// share the A value. Single-positive members are vacuously keyed (their
// matches are single events, each owned by exactly one bucket), but at
// least one member must be multi-positive and keyed, else partitioning
// buys nothing. Candidates are intersected over members and the smallest
// attribute in sort order wins, keeping the choice deterministic.
func partitionKey(group []*qstate) (string, bool) {
	cands := map[string]bool{}
	for _, q := range group {
		eachEqJoin(q, func(_, _ int, attr string) {
			cands[attr] = true
		})
	}
	attrs := make([]string, 0, len(cands))
	for a := range cands {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	for _, a := range attrs {
		multi := false
		ok := true
		for _, q := range group {
			if q.ps.N() < 2 {
				continue
			}
			if !keyedOn(q, a) {
				ok = false
				break
			}
			multi = true
		}
		if ok && multi {
			return a, true
		}
	}
	return "", false
}

// ExplainPartitionKey re-derives a component's hash-partition attribute for
// the explain layer and, when none qualifies, renders a human-readable
// reason — the same derivation as partitionKey, narrated. attr is empty iff
// reason is non-empty.
func ExplainPartitionKey(queries []Query) (attr string, reason string) {
	group := make([]*qstate, len(queries))
	for i, q := range queries {
		group[i] = newQState(q)
	}
	if a, ok := partitionKey(group); ok {
		return a, ""
	}
	cands := map[string]bool{}
	for _, q := range group {
		eachEqJoin(q, func(_, _ int, a string) { cands[a] = true })
	}
	if len(cands) == 0 {
		return "", "no member carries an explicit equi-join between positive positions"
	}
	attrs := make([]string, 0, len(cands))
	for a := range cands {
		attrs = append(attrs, a)
	}
	sort.Strings(attrs)
	multi := false
	for _, q := range group {
		if q.ps.N() >= 2 {
			multi = true
			break
		}
	}
	if !multi {
		return "", "every member is single-positive; partitioning would buy nothing"
	}
	// Some member's positive positions are not fully connected by any
	// single candidate attribute's equality graph.
	for _, a := range attrs {
		for _, q := range group {
			if q.ps.N() >= 2 && !keyedOn(q, a) {
				return "", fmt.Sprintf(
					"candidate attribute %q does not chain all positive positions of member %q (no attribute keys every member)",
					a, q.name)
			}
		}
	}
	return "", "no candidate attribute keys every multi-positive member"
}

// eachEqJoin visits every explicit equi-join predicate between two positive
// planning positions of the query.
func eachEqJoin(q *qstate, fn func(i, j int, attr string)) {
	n := q.ps.N()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			for _, pr := range q.c.Preds.Pairs(q.term(i), q.term(j)) {
				if !pr.HasCond {
					continue
				}
				if attr, ok := pr.Cond.EqualityJoin(); ok {
					fn(i, j, attr)
				}
			}
		}
	}
}

// keyedOn reports whether the equi-joins on attr connect all of the query's
// positive planning positions (union-find over the equality graph).
func keyedOn(q *qstate, attr string) bool {
	n := q.ps.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	eachEqJoin(q, func(i, j int, a string) {
		if a == attr {
			parent[find(i)] = find(j)
		}
	})
	root := find(0)
	for i := 1; i < n; i++ {
		if find(i) != root {
			return false
		}
	}
	return true
}

// adoptKeep reports whether a partitioned engine owns an adopted instance:
// every constituent must hash into this lane's bucket. Instances whose
// constituents disagree on the bucket are dropped by every sibling — they
// can never complete (completion forces value equality along the key
// chain, and equal values share a bucket), so no match is lost.
func (e *Engine) adoptKeep(in *inst) bool {
	if e.partTotal <= 1 {
		return true
	}
	for _, ev := range in.ev {
		if PartitionBucket(ev, &e.partKey, e.partTotal) != e.partIdx {
			return false
		}
	}
	return true
}
