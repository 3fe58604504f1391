package filterindex

import (
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/event"
	"repro/internal/pattern"
	"repro/internal/predicate"
)

var (
	schemaA = event.NewSchema("A", "x", "y")
	schemaB = event.NewSchema("B", "x", "y")
)

func evA(x, y float64) *event.Event { return event.New(schemaA, 0, x, y) }
func evB(x, y float64) *event.Event { return event.New(schemaB, 0, x, y) }

// uc builds the unary condition "e.attr OP const".
func uc(attr string, op pattern.CmpOp, val float64) pattern.Condition {
	return pattern.Cmp(pattern.Ref("e", attr), op, pattern.Const(val))
}

func hitSet(x *Index, e *event.Event) map[Hit]int {
	out := make(map[Hit]int)
	for _, h := range x.AppendHits(e, nil) {
		out[h]++
	}
	return out
}

func wantHits(t *testing.T, x *Index, e *event.Event, want ...Hit) {
	t.Helper()
	got := hitSet(x, e)
	if len(got) != len(want) {
		t.Fatalf("hits = %v, want %v", got, want)
	}
	for _, h := range want {
		if got[h] != 1 {
			t.Fatalf("hits = %v, want exactly one of each of %v", got, want)
		}
	}
}

func TestTypeDispatchAndEquality(t *testing.T) {
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 1)}},
		{Lane: 1, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 2)}},
		{Lane: 2, Slot: -1, Type: "B"},
	}, nil)
	wantHits(t, x, evA(1, 0), Hit{Lane: 0, Slot: -1})
	wantHits(t, x, evA(2, 0), Hit{Lane: 1, Slot: -1})
	wantHits(t, x, evA(3, 0)) // no bucket
	wantHits(t, x, evB(1, 0), Hit{Lane: 2, Slot: -1})
	// A type with no subscriptions at all matches nothing.
	wantHits(t, x, event.New(event.NewSchema("C", "x"), 0, 1))
	if x.Empty() {
		t.Fatal("Empty() on a populated index")
	}
}

func TestRangeBoundaries(t *testing.T) {
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Ge, 10)}},
		{Lane: 1, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Gt, 10)}},
		{Lane: 2, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Le, 5)}},
		{Lane: 3, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Lt, 5)}},
	}, nil)
	wantHits(t, x, evA(10, 0), Hit{Lane: 0, Slot: -1}) // Ge inclusive, Gt strict
	wantHits(t, x, evA(11, 0), Hit{Lane: 0, Slot: -1}, Hit{Lane: 1, Slot: -1})
	wantHits(t, x, evA(5, 0), Hit{Lane: 2, Slot: -1}) // Le inclusive, Lt strict
	wantHits(t, x, evA(4, 0), Hit{Lane: 2, Slot: -1}, Hit{Lane: 3, Slot: -1})
	wantHits(t, x, evA(7, 0)) // in the gap
}

func TestBandConjunction(t *testing.T) {
	// One subscription with a band (two constraints, need == 2) plus one
	// with an equality inside the band on the same attribute.
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Ge, 10), uc("x", pattern.Le, 20)}},
		{Lane: 1, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 15)}},
	}, nil)
	wantHits(t, x, evA(9, 0))
	wantHits(t, x, evA(10, 0), Hit{Lane: 0, Slot: -1})
	wantHits(t, x, evA(15, 0), Hit{Lane: 0, Slot: -1}, Hit{Lane: 1, Slot: -1})
	wantHits(t, x, evA(20, 0), Hit{Lane: 0, Slot: -1})
	wantHits(t, x, evA(21, 0))
}

func TestMultiAttributeConjunction(t *testing.T) {
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 1), uc("y", pattern.Eq, 2)}},
	}, nil)
	wantHits(t, x, evA(1, 2), Hit{Lane: 0, Slot: -1})
	wantHits(t, x, evA(1, 3))
	wantHits(t, x, evA(0, 2))
}

func TestDuplicateConstraintDeduped(t *testing.T) {
	// The same constraint twice in one subscription must not require two
	// counter bumps (the tables fire it once per event).
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 1), uc("x", pattern.Eq, 1)}},
	}, nil)
	wantHits(t, x, evA(1, 0), Hit{Lane: 0, Slot: -1})
}

func TestResidualAndScanList(t *testing.T) {
	// Ne is not indexable: it becomes a residual on an otherwise
	// unconstrained subscription, which lands on the scan list.
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Ne, 1)}},
		{Lane: 1, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 1)},
			Residual: []predicate.UnaryFn{func(e *event.Event) bool { v, _ := e.Attr("y"); return v > 0 }}},
	}, nil)
	wantHits(t, x, evA(2, 0), Hit{Lane: 0, Slot: -1})
	wantHits(t, x, evA(1, 0))                         // Ne fails; residual y>0 fails
	wantHits(t, x, evA(1, 1), Hit{Lane: 1, Slot: -1}) // bucket + residual pass
	rep := x.Report()
	if len(rep) != 1 || rep[0].Subs != 2 || rep[0].ScanSubs != 1 || rep[0].IndexedConstraints != 1 {
		t.Fatalf("report = %+v", rep)
	}
	if rep[0].ResidualChecks == 0 {
		t.Fatal("residual checks not counted")
	}
}

func TestSlotsAndMultiHitOrdering(t *testing.T) {
	// Slot-addressed subscriptions of one lane: all matching slots come
	// back, unordered (callers sort).
	x := Build([]Sub{
		{Lane: 4, Slot: 2, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Ge, 0)}},
		{Lane: 4, Slot: 0, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Ge, 1)}},
		{Lane: 4, Slot: 1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Ge, 100)}},
	}, nil)
	hits := x.AppendHits(evA(1, 0), nil)
	sort.Slice(hits, func(i, j int) bool { return hits[i].Slot < hits[j].Slot })
	if len(hits) != 2 || hits[0] != (Hit{Lane: 4, Slot: 0}) || hits[1] != (Hit{Lane: 4, Slot: 2}) {
		t.Fatalf("hits = %v", hits)
	}
}

func TestPseudoAttribute(t *testing.T) {
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("partition", pattern.Eq, 3)}},
	}, nil)
	e := evA(0, 0)
	e.Partition = 3
	wantHits(t, x, e, Hit{Lane: 0, Slot: -1})
	e2 := evA(0, 0)
	e2.Partition = 4
	wantHits(t, x, e2)
}

func TestMissingAttributeNeverMatches(t *testing.T) {
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("z", pattern.Ge, 0)}},
	}, nil)
	wantHits(t, x, evA(1, 1)) // schema has no z: constraint cannot be satisfied
}

// TestNaNNeverMatches: a NaN attribute fails every indexed comparison,
// equality and both bound directions alike, while -0 matches +0.
func TestNaNNeverMatches(t *testing.T) {
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Ge, 1)}},
		{Lane: 1, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Lt, 3)}},
		{Lane: 2, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 0)}},
		{Lane: 3, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Le, 0), uc("x", pattern.Gt, -1)}},
	}, nil)
	wantHits(t, x, evA(math.NaN(), 0))
	wantHits(t, x, evA(math.Copysign(0, -1), 0),
		Hit{Lane: 1, Slot: -1}, Hit{Lane: 2, Slot: -1}, Hit{Lane: 3, Slot: -1})
}

func TestMatchesAndAlways(t *testing.T) {
	x := Build([]Sub{
		{Lane: 1, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 1)}},
	}, []int{5, 2})
	if !x.Matches(evA(1, 0)) || x.Matches(evA(2, 0)) || x.Matches(evB(1, 0)) {
		t.Fatal("Matches verdicts wrong")
	}
	if a := x.Always(); len(a) != 2 || a[0] != 2 || a[1] != 5 {
		t.Fatalf("Always = %v, want sorted [2 5]", a)
	}
	if x.Subs() != 1 {
		t.Fatalf("Subs = %d", x.Subs())
	}
	empty := Build(nil, []int{0})
	if !empty.Empty() {
		t.Fatal("index with only always-lanes should report Empty")
	}
}

func TestUpdateReusesCleanShards(t *testing.T) {
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 1)}},
		{Lane: 1, Slot: -1, Type: "B", Conds: []pattern.Condition{uc("x", pattern.Eq, 1)}},
	}, nil)
	for i := 0; i < 10; i++ {
		x.AppendHits(evA(1, 0), nil)
		x.AppendHits(evB(1, 0), nil)
	}
	// Churn touches only B: A's shard — counters included — must carry over.
	x2 := Update(x, []Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 1)}},
		{Lane: 2, Slot: -1, Type: "B", Conds: []pattern.Condition{uc("x", pattern.Eq, 2)}},
	}, nil, map[string]bool{"B": true})
	if x2.shards["A"] != x.shards["A"] {
		t.Fatal("clean shard A was rebuilt")
	}
	if x2.shards["B"] == x.shards["B"] {
		t.Fatal("dirty shard B was reused")
	}
	rep := x2.Report()
	if rep[0].Type != "A" || rep[0].Events != 10 {
		t.Fatalf("A counters lost across Update: %+v", rep[0])
	}
	if rep[1].Type != "B" || rep[1].Events != 0 {
		t.Fatalf("B counters not reset: %+v", rep[1])
	}
	wantHits(t, x2, evB(2, 0), Hit{Lane: 2, Slot: -1})
	wantHits(t, x2, evB(1, 0))
	// nil dirty rebuilds everything.
	x3 := Update(x2, []Sub{{Lane: 0, Slot: -1, Type: "A"}}, nil, nil)
	if x3.shards["A"] == x2.shards["A"] {
		t.Fatal("nil dirty must rebuild all shards")
	}
}

func TestUnarySelectivity(t *testing.T) {
	cond := uc("x", pattern.Eq, 1)
	x := Build([]Sub{{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{cond}}}, nil)
	if _, ok := x.UnarySelectivity("A", cond); ok {
		t.Fatal("selectivity answered below the evaluation floor")
	}
	for i := 0; i < 64; i++ {
		x.AppendHits(evA(float64(i%2), 0), nil) // half the events have x == 1
	}
	sel, ok := x.UnarySelectivity("A", cond)
	if !ok || sel != 0.5 {
		t.Fatalf("selectivity = %v, %v; want 0.5, true", sel, ok)
	}
	if _, ok := x.UnarySelectivity("B", cond); ok {
		t.Fatal("selectivity for unknown type")
	}
	if _, ok := x.UnarySelectivity("A", uc("x", pattern.Eq, 9)); ok {
		t.Fatal("selectivity for unindexed constraint")
	}
	// The flipped spelling (const on the left) normalizes to the same key.
	flipped := pattern.Cmp(pattern.Const(1), pattern.Eq, pattern.Ref("e", "x"))
	if sel, ok := x.UnarySelectivity("A", flipped); !ok || sel != 0.5 {
		t.Fatalf("flipped selectivity = %v, %v", sel, ok)
	}
}

func TestConcurrentAppendHits(t *testing.T) {
	x := Build([]Sub{
		{Lane: 0, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Ge, 10), uc("x", pattern.Le, 20)}},
		{Lane: 1, Slot: -1, Type: "A", Conds: []pattern.Condition{uc("x", pattern.Eq, 15)}},
		{Lane: 2, Slot: -1, Type: "A"},
	}, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				v := float64(i % 30)
				n := len(x.AppendHits(evA(v, 0), nil))
				want := 1 // scan sub
				if v >= 10 && v <= 20 {
					want++
				}
				if v == 15 {
					want++
				}
				if n != want {
					t.Errorf("x=%v: %d hits, want %d", v, n, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
