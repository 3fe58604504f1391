package mqo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/stats"
)

// probeStream is a fixed small stream of A and B events whose x keys
// include NaN, -0 and +0. B events come in three schemas: x first, x
// second (the key column moves), and no x at all (the key is missing).
func probeStream() []*event.Event {
	a := event.NewSchema("A", "x")
	bx := event.NewSchema("B", "x")
	byx := event.NewSchema("B", "y", "x")
	by := event.NewSchema("B", "y")
	keys := []float64{1, 2, 3, math.NaN(), math.Copysign(0, -1), 0}
	rng := rand.New(rand.NewSource(3))
	var evs []*event.Event
	for i := 0; i < 300; i++ {
		k := keys[rng.Intn(len(keys))]
		ts := event.Time(i + 1)
		switch rng.Intn(4) {
		case 0:
			evs = append(evs, event.New(a, ts, k))
		case 1:
			evs = append(evs, event.New(bx, ts, k))
		case 2:
			evs = append(evs, event.New(byx, ts, 9, k))
		default:
			evs = append(evs, event.New(by, ts, k))
		}
	}
	return evs
}

// TestKeyColReadsAsEq checks KeyCol against event.Attr over more schemas
// than it remembers, with the key column moving between schemas, and a
// pseudo attribute. Two events share a key exactly when Eq pairs their
// values, and share a partition bucket whenever they share a key.
func TestKeyColReadsAsEq(t *testing.T) {
	vals := []float64{1, 2, math.NaN(), math.Copysign(0, -1), 0}
	var evs []*event.Event
	for i := 0; i < 2*maxSeenSchemas+3; i++ {
		attrs := make([]string, i%4)
		for j := range attrs {
			attrs[j] = fmt.Sprintf("p%d", j)
		}
		hasX := i%5 != 4 // every fifth schema lacks x
		if hasX {
			attrs = append(attrs, "x")
		}
		s := event.NewSchema(fmt.Sprintf("T%d", i), attrs...)
		for _, v := range vals {
			row := make([]float64, len(attrs))
			if hasX {
				row[len(row)-1] = v
			}
			evs = append(evs, event.New(s, event.Time(i), row...))
		}
	}
	for _, attr := range []string{"x", "ts"} {
		kc := NewKeyCol(attr)
		for pass := 0; pass < 2; pass++ {
			for _, a := range evs {
				ka, oka := kc.Read(a)
				va, hasA := a.Attr(attr)
				if oka != (hasA && va == va) {
					t.Fatalf("%s: Read(%v) ok=%v, want %v", attr, a, oka, hasA && va == va)
				}
				for _, b := range evs {
					kb, okb := kc.Read(b)
					vb, _ := b.Attr(attr)
					if eq := oka && okb && ka == kb; eq != (oka && okb && va == vb) {
						t.Fatalf("%s: keys of %v and %v equal=%v, Eq says %v", attr, va, vb, eq, va == vb)
					}
					if oka && okb && ka == kb && PartitionBucket(a, &kc, 7) != PartitionBucket(b, &kc, 7) {
						t.Fatalf("%s: equal keys of %v and %v in different buckets", attr, va, vb)
					}
				}
			}
		}
	}
}

// runProbes feeds evs through a one-query engine for p and returns its
// probe and match counts. The window spans the whole stream, so nothing
// expires and every buffered instance stays probeable.
func runProbes(t *testing.T, p *pattern.Pattern, evs []*event.Event) (probes, matches int64) {
	t.Helper()
	g, err := Single(Query{Name: "q", SP: planSimple(t, p, stats.New(), core.AlgZStream)})
	if err != nil {
		t.Fatal(err)
	}
	for i, ev := range evs {
		g.Engine.Process(ev, uint64(i+1))
	}
	st := g.Engine.Stats()
	return st.Probes, st.Matches
}

// TestJoinProbesSameKeyPairsOnly pins EngineStats.Probes on a fixed
// stream: an equi-join tests exactly the sibling pairs whose keys are
// equal under Eq (NaN and missing keys pair with nothing, -0 pairs with
// +0), while a join without an equality still tests every pair.
func TestJoinProbesSameKeyPairsOnly(t *testing.T) {
	evs := probeStream()
	const window = 1 << 20
	key := func(ev *event.Event) (float64, bool) { return ev.Attr("x") }

	var sameKey, all, sameKeyOrdered int64
	for i, e1 := range evs {
		for _, e2 := range evs[i+1:] {
			if e1.Type == e2.Type {
				continue
			}
			all++
			k1, ok1 := key(e1)
			k2, ok2 := key(e2)
			if ok1 && ok2 && k1 == k2 {
				sameKey++
				if e1.Type == "A" {
					sameKeyOrdered++
				}
			}
		}
	}

	eq := pattern.Seq(window, pattern.E("A", "a"), pattern.E("B", "b")).
		Where(pattern.AttrCmp("a", "x", pattern.Eq, "b", "x"))
	probes, matches := runProbes(t, eq, evs)
	if probes != sameKey {
		t.Errorf("equi-join probes = %d, want %d same-key pairs", probes, sameKey)
	}
	if matches != sameKeyOrdered {
		t.Errorf("equi-join matches = %d, want %d", matches, sameKeyOrdered)
	}

	lt := pattern.Seq(window, pattern.E("A", "a"), pattern.E("B", "b")).
		Where(pattern.AttrCmp("a", "x", pattern.Lt, "b", "x"))
	if probes, _ := runProbes(t, lt, evs); probes != all {
		t.Errorf("keyless join probes = %d, want %d (every A-B pair)", probes, all)
	}
}

// TestJoinProbesSelfJoin checks the self-join path: a new A instance is in
// its own bucket before it probes from either side of the A⋈A node, so
// each arrival tests itself and every earlier same-key A once per side,
// and the disjointness check rejects the self-pairings.
func TestJoinProbesSelfJoin(t *testing.T) {
	var as []*event.Event
	for _, ev := range probeStream() {
		if ev.Type == "A" {
			as = append(as, ev)
		}
	}
	var probes, matches int64
	for i, e1 := range as {
		k1, _ := e1.Attr("x")
		if k1 != k1 {
			continue
		}
		for _, e2 := range as[:i+1] {
			if k2, _ := e2.Attr("x"); k1 == k2 {
				probes += 2
				if e2 != e1 {
					matches++
				}
			}
		}
	}
	p := pattern.Seq(1<<20, pattern.E("A", "a1"), pattern.E("A", "a2")).
		Where(pattern.AttrCmp("a1", "x", pattern.Eq, "a2", "x"))
	gotProbes, gotMatches := runProbes(t, p, as)
	if gotProbes != probes || gotMatches != matches {
		t.Fatalf("self-join probes=%d matches=%d, want %d and %d", gotProbes, gotMatches, probes, matches)
	}
}

// TestJoinIndexKeepsScanOrder runs a three-way keyed pattern twice on a
// long stream with hostile keys and a short window, so instances expire,
// recycle and are swept: once with x-equalities, which the engine probes
// through its join indexes, and once with each equality spelled as
// `<= AND >=`, which holds for exactly the same pairs but leaves the joins
// scanned. Both must emit the same matches in the same order, and the
// indexed run must test fewer pairs.
func TestJoinIndexKeepsScanOrder(t *testing.T) {
	keys := []float64{math.NaN(), math.Copysign(0, -1), 0}
	for i := 1; i < 400; i++ {
		keys = append(keys, float64(i))
	}
	schemas := []*event.Schema{event.NewSchema("A", "x"), event.NewSchema("B", "x"), event.NewSchema("C", "y", "x")}
	rng := rand.New(rand.NewSource(9))
	var evs []*event.Event
	for i := 0; i < 40000; i++ {
		k := keys[rng.Intn(len(keys))]
		if i%2 == 0 {
			k = keys[rng.Intn(4)] // keep a few keys hot
		}
		s := schemas[rng.Intn(len(schemas))]
		vals := []float64{k}
		if s.NumAttrs() == 2 {
			vals = []float64{1, k}
		}
		evs = append(evs, event.New(s, event.Time(i), vals...))
	}
	run := func(eq func(l, r string) []pattern.Condition) ([]string, int64) {
		p := pattern.Seq(30, pattern.E("A", "a"), pattern.E("B", "b"), pattern.E("C", "c"))
		p = p.Where(append(eq("a", "b"), eq("b", "c")...)...)
		g, err := Single(Query{Name: "q", SP: planSimple(t, p, stats.New(), core.AlgTrivial)})
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for i, ev := range evs {
			for _, tm := range g.Engine.Process(ev, uint64(i+1)) {
				out = append(out, fmt.Sprint(tm.M.Events()))
			}
		}
		return out, g.Engine.Stats().Probes
	}
	indexed, indexedProbes := run(func(l, r string) []pattern.Condition {
		return []pattern.Condition{pattern.AttrCmp(l, "x", pattern.Eq, r, "x")}
	})
	scanned, scannedProbes := run(func(l, r string) []pattern.Condition {
		return []pattern.Condition{
			pattern.AttrCmp(l, "x", pattern.Le, r, "x"),
			pattern.AttrCmp(l, "x", pattern.Ge, r, "x"),
		}
	})
	if len(indexed) == 0 || len(indexed) != len(scanned) {
		t.Fatalf("indexed run emitted %d matches, scanned %d", len(indexed), len(scanned))
	}
	for i := range indexed {
		if indexed[i] != scanned[i] {
			t.Fatalf("match %d: indexed %s, scanned %s", i, indexed[i], scanned[i])
		}
	}
	if indexedProbes >= scannedProbes {
		t.Fatalf("indexed run tested %d pairs, scanned %d", indexedProbes, scannedProbes)
	}
}

// keyedJoinQueries is the keyed-shared benchmark shape: 64 SEQ(A, B, Ti)
// queries over eight tails and three thresholds, every position chained
// by k-equality.
func keyedJoinQueries(tb testing.TB, sample []*event.Event) []Query {
	const nQueries, nTails = 64, 8
	qs := make([]Query, nQueries)
	for i := range qs {
		p := pattern.Seq(3000,
			pattern.E("A", "a"), pattern.E("B", "b"), pattern.E(fmt.Sprintf("T%d", i%nTails), "c"),
		).Where(
			pattern.AttrCmp("a", "k", pattern.Eq, "b", "k"),
			pattern.AttrCmp("b", "k", pattern.Eq, "c", "k"),
			pattern.AttrCmp("a", "v", pattern.Lt, "b", "v"),
			pattern.AttrCmp("b", "v", pattern.Lt, "c", "v"),
			pattern.Cmp(pattern.Ref("c", "v"), pattern.Ge, pattern.Const(float64(6+(i/nTails)%3))),
		)
		qs[i] = Query{
			Name: fmt.Sprintf("q%02d", i),
			SP:   planSimple(tb, p, stats.MeasurePattern(sample, p), core.AlgGreedy),
		}
	}
	return qs
}

// keyedJoinStream is the keyed-shared stream: 5% A, 5% B, the rest spread
// over eight tail types, k uniform over 64 keys, v over 10, one event per
// millisecond.
func keyedJoinStream(seed int64, n int) []*event.Event {
	schemas := []*event.Schema{event.NewSchema("A", "k", "v"), event.NewSchema("B", "k", "v")}
	for i := 0; i < 8; i++ {
		schemas = append(schemas, event.NewSchema(fmt.Sprintf("T%d", i), "k", "v"))
	}
	rng := rand.New(rand.NewSource(seed))
	evs := make([]*event.Event, n)
	for i := range evs {
		var s *event.Schema
		switch r := rng.Float64(); {
		case r < 0.05:
			s = schemas[0]
		case r < 0.10:
			s = schemas[1]
		default:
			s = schemas[2+rng.Intn(8)]
		}
		evs[i] = event.New(s, event.Time(i+1), float64(rng.Intn(64)), float64(rng.Intn(10)))
	}
	return evs
}

// BenchmarkEngineKeyedJoin measures the shared DAG engines alone on the
// keyed-shared shape: Optimize lowers the 64 queries onto one engine per
// sharing component, and every engine is fed the whole stream in batches
// of 256, as the session's broadcast would. One op is one pass over a
// 60000-event stream; ns/event and probes/event (summed over the engines)
// are reported per stream event.
func BenchmarkEngineKeyedJoin(b *testing.B) {
	const nEvents, batch = 60000, 256
	evs := keyedJoinStream(1, nEvents)
	qs := keyedJoinQueries(b, evs[:8192])
	b.ReportAllocs()
	b.ResetTimer()
	var probes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		res, err := Optimize(qs, Options{})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Private) != 0 {
			b.Fatalf("%d queries left private, want all shared", len(res.Private))
		}
		b.StartTimer()
		for _, g := range res.Groups {
			for j := 0; j < len(evs); j += batch {
				g.Engine.ProcessBatch(evs[j:min(j+batch, len(evs))], uint64(j+1))
			}
			probes += g.Engine.Stats().Probes
		}
	}
	perEvent := float64(b.N) * nEvents
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perEvent, "ns/event")
	b.ReportMetric(float64(probes)/perEvent, "probes/event")
}
