package cep

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/workload"
)

// metricsSession builds a started sharing+indexed session over the stock
// workload with latency sampling on every submission (so counting
// assertions are exact).
func metricsSession(t *testing.T, tc *TelemetryConfig) (*Session, []*Event) {
	t.Helper()
	stocks := workload.NewStocks(workload.StockConfig{
		Symbols: 6, Events: 2000, Seed: 7, MinRate: 1, MaxRate: 5,
	})
	events := stocks.Generate()
	s := NewSession(SessionConfig{
		QueueLen: 64, ShareSubplans: true, FilterIndex: true, Telemetry: tc,
	})
	for _, qc := range stockQueries(t, stocks.Registry, events) {
		if err := s.Register(qc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	return s, events
}

func TestSessionMetricsSnapshot(t *testing.T) {
	s, events := metricsSession(t, &TelemetryConfig{LatencySampleEvery: 1})
	defer s.Close()

	// Feed half per-event, half batched.
	half := len(events) / 2
	for _, ev := range events[:half] {
		if err := s.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SubmitBatch(events[half:]); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	m := s.Metrics()
	if !m.Enabled || !m.Started || m.Closed {
		t.Fatalf("flags: enabled=%v started=%v closed=%v", m.Enabled, m.Started, m.Closed)
	}
	if m.Queries != 4 {
		t.Fatalf("queries = %d, want 4", m.Queries)
	}
	if m.EventsSubmitted != int64(len(events)) {
		t.Fatalf("events_submitted = %d, want %d", m.EventsSubmitted, len(events))
	}
	if m.BatchesSubmitted != 1 {
		t.Fatalf("batches_submitted = %d, want 1", m.BatchesSubmitted)
	}
	if m.Seq != uint64(len(events)) {
		t.Fatalf("seq = %d, want %d", m.Seq, len(events))
	}
	if m.EventsRouted == 0 {
		t.Fatal("events_routed = 0 on an indexed session")
	}
	if m.ItemsProcessed == 0 || m.EventsProcessed == 0 {
		t.Fatalf("processed: items=%d events=%d", m.ItemsProcessed, m.EventsProcessed)
	}
	if m.MatchesEmitted == 0 {
		t.Fatal("no matches emitted; counting assertions are vacuous")
	}
	// Quiescent after Drain: the per-query counters must agree with the
	// lane aggregate, and — sampling every submission — every in-stream
	// match observed a latency sample.
	var perQuery int64
	for _, q := range m.PerQuery {
		perQuery += q.Matches
	}
	if perQuery != m.MatchesEmitted {
		t.Fatalf("per-query matches %d != lane aggregate %d", perQuery, m.MatchesEmitted)
	}
	if m.Latency.Count != m.MatchesEmitted {
		t.Fatalf("latency samples %d != matches %d (sample-every-1)", m.Latency.Count, m.MatchesEmitted)
	}
	if m.Latency.Sum <= 0 || m.MeanNS <= 0 || m.P99NS < m.P50NS {
		t.Fatalf("latency stats: sum=%d mean=%v p50=%d p99=%d", m.Latency.Sum, m.MeanNS, m.P50NS, m.P99NS)
	}
	if m.Lanes == 0 || m.LiveLanes == 0 || len(m.Queues) != m.Lanes {
		t.Fatalf("lanes=%d live=%d queues=%d", m.Lanes, m.LiveLanes, len(m.Queues))
	}
	for _, q := range m.Queues {
		if !q.Retired && q.Capacity != 64 {
			t.Fatalf("lane %d capacity = %d, want 64", q.Lane, q.Capacity)
		}
		if q.Kind != "shared" && q.Kind != "private" && q.Kind != "detector" {
			t.Fatalf("lane %d kind = %q", q.Lane, q.Kind)
		}
	}
	if m.Share == nil || m.Index == nil {
		t.Fatal("share/index reports missing from snapshot")
	}
	if m.Generation < m.Share.Generation {
		t.Fatalf("generation %d < share generation %d", m.Generation, m.Share.Generation)
	}
	if len(m.Journal) == 0 || m.Journal[0].Kind == "" {
		t.Fatal("journal empty after start")
	}
	hasStart := false
	for _, e := range m.Journal {
		if e.Kind == "start" {
			hasStart = true
		}
	}
	if !hasStart {
		t.Fatalf("journal lacks start entry: %+v", m.Journal)
	}
}

func TestSessionMetricsDisabled(t *testing.T) {
	s, events := metricsSession(t, &TelemetryConfig{Disabled: true})
	defer s.Close()
	if err := s.SubmitBatch(events[:500]); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.Enabled {
		t.Fatal("telemetry reported enabled")
	}
	if m.EventsSubmitted != 0 || m.ItemsProcessed != 0 || m.Latency.Count != 0 || m.JournalRecorded != 0 {
		t.Fatalf("disabled telemetry counted: %+v", m)
	}
	// Structure still reports.
	if m.Queries != 4 || m.Seq != 500 || m.Lanes == 0 {
		t.Fatalf("structure missing: queries=%d seq=%d lanes=%d", m.Queries, m.Seq, m.Lanes)
	}
}

func TestSessionMetricsDroppedEvents(t *testing.T) {
	a := NewSchema("A", "k")
	b := NewSchema("B", "k")
	s := NewSession(SessionConfig{FilterIndex: true})
	if err := s.Register(QueryConfig{Name: "aa", Query: `PATTERN SEQ(A x, A y) WITHIN 5 s`}); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	evs := Stamp([]*Event{
		NewEvent(a, 1000, 1), // routed
		NewEvent(b, 2000, 1), // no subscriber: dropped
		NewEvent(a, 3000, 2), // routed
		NewEvent(b, 4000, 2), // dropped
	})
	for _, ev := range evs[:2] {
		if err := s.Submit(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SubmitBatch(evs[2:]); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if m.EventsDropped != 2 {
		t.Fatalf("events_dropped = %d, want 2", m.EventsDropped)
	}
	if m.EventsRouted != 2 {
		t.Fatalf("events_routed = %d, want 2", m.EventsRouted)
	}
}

func TestSessionMetricsJournalChurn(t *testing.T) {
	stocks := workload.NewStocks(workload.StockConfig{
		Symbols: 6, Events: 1000, Seed: 3, MinRate: 1, MaxRate: 5,
	})
	events := stocks.Generate()
	pool := churnPool(t, stocks.Registry, events)
	s := NewSession(SessionConfig{ShareSubplans: true, FilterIndex: true})
	for _, qc := range pool[:3] {
		if err := s.Register(qc); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.SubmitBatch(events[:200]); err != nil {
		t.Fatal(err)
	}
	if err := s.AddQuery(pool[3]); err != nil {
		t.Fatal(err)
	}
	if err := s.RemoveQuery(pool[0].Name); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	kinds := map[string]int{}
	for _, e := range m.Journal {
		kinds[e.Kind]++
		if e.Seq < 0 || e.Wall.IsZero() {
			t.Fatalf("malformed journal entry: %+v", e)
		}
	}
	for _, want := range []string{"start", "add_query", "remove_query", "splice", "index_rebuild"} {
		if kinds[want] == 0 {
			t.Fatalf("journal lacks %q entries; kinds = %v", want, kinds)
		}
	}
	// The add/remove splices bumped the generation; the journaled stream
	// positions must not exceed the submitted count.
	if m.Generation == 0 {
		t.Fatal("generation = 0 after churn on overlapping queries")
	}
	for _, e := range m.Journal {
		if e.StreamSeq > int64(m.Seq) {
			t.Fatalf("journal stream seq %d beyond session seq %d", e.StreamSeq, m.Seq)
		}
	}
}

func TestMetricsHandlerEndpoints(t *testing.T) {
	s, events := metricsSession(t, nil)
	defer s.Close()
	if err := s.SubmitBatch(events); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.MetricsHandler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		"# TYPE cep_events_submitted_total counter",
		"cep_events_submitted_total 2000",
		"cep_batches_submitted_total 1",
		"# TYPE cep_events_rejected_total counter",
		"cep_events_rejected_total 0",
		"# TYPE cep_detection_latency_seconds histogram",
		"cep_detection_latency_seconds_count",
		"cep_queue_capacity{",
		`cep_query_matches_total{query="pairs"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q\n%s", want, body)
		}
	}

	code, body = get("/metrics.json")
	if code != http.StatusOK {
		t.Fatalf("/metrics.json status %d", code)
	}
	var snap map[string]any
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("/metrics.json not JSON: %v", err)
	}
	if snap["events_submitted"].(float64) != 2000 {
		t.Fatalf("/metrics.json events_submitted = %v", snap["events_submitted"])
	}

	code, body = get("/debug/vars")
	if code != http.StatusOK {
		t.Fatalf("/debug/vars status %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars not JSON: %v", err)
	}
	if _, ok := vars["cep"]; !ok {
		t.Fatal("/debug/vars lacks cep var")
	}

	if code, _ = get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	if code, _ = get("/nope"); code != http.StatusNotFound {
		t.Fatalf("/nope status %d, want 404", code)
	}
}

// TestSessionMetricsShards pins the sharded-detector branch of the unified
// snapshot: a registered ShardedRuntime's per-shard counters (and queue
// gauges) surface under Metrics().Shards.
func TestSessionMetricsShards(t *testing.T) {
	login := NewSchema("Login", "user")
	alert := NewSchema("Alert", "user")
	p, err := ParsePattern(`PATTERN SEQ(Login l, Alert a) WITHIN 5 s`)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := NewSharded(p, nil, nil, ShardConfig{Workers: 2, QueueLen: 8})
	if err != nil {
		t.Fatal(err)
	}
	s := NewSession(SessionConfig{})
	if err := s.RegisterDetector("sharded", sharded, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	evs := Stamp([]*Event{
		NewEvent(login, 1000, 1), NewEvent(alert, 2000, 1),
		NewEvent(login, 3000, 2), NewEvent(alert, 4000, 2),
	})
	for i, ev := range evs {
		ev.Partition = i % 2
	}
	if err := s.SubmitBatch(evs); err != nil {
		t.Fatal(err)
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// Session.Drain empties the session lanes; the sharded runtime queues
	// behind the detector lane drain on their own clock.
	if err := sharded.Drain(); err != nil {
		t.Fatal(err)
	}
	m := s.Metrics()
	if len(m.Shards) != 1 || m.Shards[0].Query != "sharded" {
		t.Fatalf("shards groups = %+v", m.Shards)
	}
	var shardEvents int64
	for _, sh := range m.Shards[0].Shards {
		shardEvents += sh.Events
		if sh.QueueCap != 8 {
			t.Fatalf("shard %d queue cap = %d, want 8", sh.Shard, sh.QueueCap)
		}
	}
	if shardEvents != int64(len(evs)) {
		t.Fatalf("shard events = %d, want %d", shardEvents, len(evs))
	}
	if len(m.Queues) != 1 || m.Queues[0].Kind != "detector" {
		t.Fatalf("queues = %+v", m.Queues)
	}
}
