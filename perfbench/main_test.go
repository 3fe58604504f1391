package main

import (
	"encoding/json"
	"os"
	"testing"
)

// declared reads the metric names BENCHMARK.json lists for a mode.
func declared(t *testing.T, key string) map[string]string {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b map[string]json.RawMessage
	if err := json.Unmarshal(blob, &b); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name, Unit string }
	if err := json.Unmarshal(b[key], &ms); err != nil {
		t.Fatal(err)
	}
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestSmoke runs every workload at a tiny size, untraced and traced, and
// checks that the run is correct and prints exactly the metrics
// BENCHMARK.json declares for the mode, with their units.
func TestSmoke(t *testing.T) {
	for _, mode := range []struct {
		key   string
		trace bool
	}{{"end_to_end", false}, {"per_layer", true}} {
		want := declared(t, mode.key)
		for _, sp := range specs {
			o := options{seed: 7, seconds: 0.2, trace: mode.trace}
			res := runWorkload(scaled(sp, 0.02), o)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s trace=%t: correct=%t attempted=%d failed=%d", sp.name, mode.trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json declares %d", sp.name, mode.trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", sp.name, mode.trace, name, m, unit)
				}
			}
		}
	}
}

// TestReferenceRouting checks that routing only the events a query can
// bind, and splitting chained queries by key, leaves every reference count
// unchanged.
func TestReferenceRouting(t *testing.T) {
	for _, sp := range specs {
		const events = 20_000
		full, err := reference(sp, sp.queries, 5, events, false)
		if err != nil {
			t.Fatal(err)
		}
		routed, err := reference(sp, sp.queries, 5, events, true)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for i := range full {
			total += full[i]
			if full[i] != routed[i] {
				t.Errorf("%s %s: %d matches unrouted, %d routed", sp.name, sp.queries[i].Name, full[i], routed[i])
			}
		}
		if total == 0 {
			t.Errorf("%s: no matches in %d events", sp.name, events)
		}
	}
}
