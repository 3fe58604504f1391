package cep

// Session.Metrics — the one coherent observability snapshot — and the
// opt-in HTTP exposition endpoint (Prometheus text format, expvar-style
// JSON, pprof), stdlib only. The instrumentation being read here is wired
// in telemetry.go / session.go; this file only snapshots and formats.

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/telemetry"
)

// QueueMetrics describes one worker lane: its queue (instantaneous depth
// and capacity — the back-pressure gauges) and its cumulative counters.
// Retired lanes (spliced away by churn or drift) stay in the list with
// their final counter values and an empty queue: per-lane counters are
// monotonic over each lane's lifetime, and the session aggregates stay
// monotonic because tombstones keep counting.
type QueueMetrics struct {
	// Lane is the stable pool lane index.
	Lane int `json:"lane"`
	// Kind is "shared" (MQO DAG lane), "private" (one query's own engine)
	// or "detector" (opaque pre-built detector).
	Kind string `json:"kind"`
	// Members are the query names served by the lane.
	Members []string `json:"members,omitempty"`
	// Component is the sharing-component id of a shared lane, -1 otherwise.
	Component int `json:"component"`
	// Partition is the hash bucket a key-partitioned shared lane owns
	// (SessionConfig.PartitionWorkers), -1 on unpartitioned lanes;
	// Partitions is the sibling count of its family (0 when unpartitioned).
	Partition  int `json:"partition"`
	Partitions int `json:"partitions,omitempty"`
	// Generation is the re-optimization generation that built the lane.
	Generation int `json:"generation"`
	// Retired marks a tombstone lane whose state was spliced elsewhere.
	Retired bool `json:"retired,omitempty"`
	// Depth and Capacity are the bounded queue's instantaneous fill and
	// size (0, 0 for retired lanes).
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
	// Items counts queue items consumed (each a batch of events, one for
	// Submit); Events counts events processed (batches expanded); Matches
	// the matches the lane emitted; Stalls the sends that found the queue
	// full and blocked (back-pressure).
	Items   int64 `json:"items"`
	Events  int64 `json:"events"`
	Matches int64 `json:"matches"`
	Stalls  int64 `json:"stalls"`
}

// QueryMetrics is the per-query slice of the snapshot.
type QueryMetrics struct {
	Name string `json:"name"`
	// Matches counts the query's emitted matches over its lifetime,
	// surviving lane splices (the counter belongs to the query).
	Matches int64 `json:"matches"`
	// Since is the stream sequence watermark of the query's registration.
	Since uint64 `json:"since"`
}

// ShardGroupMetrics carries one registered ShardedRuntime detector's
// per-shard counters into the unified snapshot.
type ShardGroupMetrics struct {
	Query  string       `json:"query"`
	Shards []ShardStats `json:"shards"`
}

// SessionMetrics is one coherent snapshot of everything the session
// measures about itself: feed counters, per-lane counters and queue
// gauges, per-query match counts, the sampled detection-latency
// distribution, the control-plane journal, registered sharded detectors'
// shard counters, and the existing decision reports (sharing, drift,
// ingress index) cross-linked in one place.
//
// Consistency: counters are read atomically but not under a global stop —
// concurrent feeding keeps them moving between loads, so cross-counter
// identities hold only approximately on a live session (and exactly once
// it is quiescent). All counters are monotonic while the session lives.
// Generation is read after the Share/Drift/Index reports are taken, so
// Generation >= Share.Generation always holds within one snapshot.
type SessionMetrics struct {
	// When is the snapshot wall time; Enabled reports whether telemetry is
	// on (when false only structure and reports are populated).
	When    time.Time `json:"when"`
	Enabled bool      `json:"enabled"`

	Started bool `json:"started"`
	Closed  bool `json:"closed"`
	// Queries counts registered queries; Lanes all pool lanes ever created
	// (tombstones included); LiveLanes the lanes accepting work.
	Queries   int `json:"queries"`
	Lanes     int `json:"lanes"`
	LiveLanes int `json:"live_lanes"`
	// Generation is the re-optimization count (churn + drift), the same
	// clock as ShareReport.Generation.
	Generation int `json:"generation"`
	// Seq is the stream position: events submitted so far.
	Seq uint64 `json:"seq"`

	// Feed counters. EventsSubmitted counts events accepted by Submit and
	// SubmitBatch, BatchesSubmitted the SubmitBatch calls among them;
	// EventsRejected counts events refused with ErrOutOfOrder; EventsRouted
	// counts per-lane deliveries on the index-routed path; EventsDropped
	// counts events the ingress index proved no lane could use (matched
	// nothing, no always-lanes).
	EventsSubmitted  int64 `json:"events_submitted"`
	BatchesSubmitted int64 `json:"batches_submitted"`
	EventsRejected   int64 `json:"events_rejected"`
	EventsRouted     int64 `json:"events_routed"`
	EventsDropped    int64 `json:"events_dropped"`

	// Worker aggregates: sums over every lane ever created, monotonic
	// across splices.
	ItemsProcessed  int64 `json:"items_processed"`
	EventsProcessed int64 `json:"events_processed"`
	MatchesEmitted  int64 `json:"matches_emitted"`
	Stalls          int64 `json:"stalls"`

	// Latency is the merged sampled detection-latency histogram
	// (submit → match emission, nanoseconds); P50/P99 are bucket-resolution
	// estimates from it, MeanNS the exact mean.
	Latency telemetry.HistSnapshot `json:"latency"`
	MeanNS  float64                `json:"latency_mean_ns"`
	P50NS   int64                  `json:"latency_p50_ns"`
	P99NS   int64                  `json:"latency_p99_ns"`

	Queues   []QueueMetrics `json:"queues,omitempty"`
	PerQuery []QueryMetrics `json:"per_query,omitempty"`

	// Journal is the retained control-plane history (oldest first);
	// JournalRecorded the total ever recorded, overwritten entries
	// included; JournalDropped how many of those the bounded ring has
	// overwritten (non-zero means the retained history is truncated).
	Journal         []telemetry.Entry `json:"journal,omitempty"`
	JournalRecorded int64             `json:"journal_recorded"`
	JournalDropped  int64             `json:"journal_dropped"`

	// TracesSampled counts the event traces ever captured by the tracing
	// layer (SessionConfig.Trace.SampleEvery); TracesRetained how many the
	// bounded ring currently holds. Both zero when tracing is off.
	TracesSampled  int64 `json:"traces_sampled,omitempty"`
	TracesRetained int   `json:"traces_retained,omitempty"`

	// Shards surfaces registered ShardedRuntime detectors' per-shard
	// counters and queue gauges.
	Shards []ShardGroupMetrics `json:"shards,omitempty"`

	// The decision reports, as their own methods would return them (nil
	// when the corresponding subsystem is off or the session not started).
	Share *ShareReport `json:"share,omitempty"`
	Drift *DriftReport `json:"drift,omitempty"`
	Index *IndexReport `json:"index,omitempty"`
}

// shardStatser is how the snapshot discovers sharded detectors without a
// concrete-type dependency: ShardedRuntime satisfies it.
type shardStatser interface{ Stats() []ShardStats }

// Metrics returns the unified observability snapshot. It is safe to call
// at any rate from any goroutine concurrently with the feed and with
// query churn: counter reads are atomic, queue depths are momentary
// gauges, and the decision reports are taken with their own locking
// before the counter pass (so Generation >= Share.Generation within the
// snapshot). It never blocks the hot path.
func (s *Session) Metrics() *SessionMetrics {
	// The self-locking reports first — each briefly takes s.mu — then the
	// structural pass under s.mu. Taking them in this order bounds their
	// generations by the snapshot's own.
	m := &SessionMetrics{
		When:  time.Now(),
		Share: s.ShareReport(),
		Drift: s.DriftReport(),
		Index: s.IndexReport(),
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	m.Started, m.Closed = s.started, s.closed
	m.Queries = len(s.queries)
	m.Generation = s.reoptGen
	m.Seq = s.seq.Load()

	if t := s.tel; t != nil {
		m.Enabled = true
		m.EventsSubmitted = t.eventsSubmitted.Load()
		m.BatchesSubmitted = t.batchesSubmitted.Load()
		m.EventsRejected = t.eventsRejected.Load()
		m.EventsRouted = t.eventsRouted.Load()
		m.EventsDropped = t.eventsDropped.Load()
		m.Journal = t.journal.Snapshot()
		m.JournalRecorded = t.journal.Recorded()
		m.JournalDropped = t.journal.Dropped()
	}
	if tr := s.tr; tr != nil && tr.ring != nil {
		m.TracesSampled = tr.ring.Added()
		m.TracesRetained = tr.ring.Len()
	}

	lanes := *s.laneTab.Load()
	m.Lanes = len(lanes)
	for _, l := range lanes {
		qm := QueueMetrics{
			Lane:       l.idx,
			Component:  -1,
			Partition:  -1,
			Generation: l.gen,
			Retired:    l.retired || l.discard,
			Items:      l.tc.Items.Load(),
			Events:     l.tc.Events.Load(),
			Matches:    l.tc.Matches.Load(),
			Stalls:     l.tc.Stalls.Load(),
		}
		switch {
		case l.eng != nil || (l.retired && l.q == nil):
			qm.Kind = "shared"
			qm.Members = append([]string(nil), l.info.members...)
			if l.eng != nil {
				qm.Component = l.comp
			}
			if l.parts > 1 {
				qm.Partition, qm.Partitions = l.part, l.parts
			}
		case l.q != nil && l.q.rt != nil:
			qm.Kind = "private"
			qm.Members = []string{l.q.name}
		default:
			qm.Kind = "detector"
			if l.q != nil {
				qm.Members = []string{l.q.name}
			}
		}
		if !qm.Retired {
			m.LiveLanes++
			qm.Depth, qm.Capacity = s.pool.QueueStats(l.idx)
		}
		m.ItemsProcessed += qm.Items
		m.EventsProcessed += qm.Events
		m.MatchesEmitted += qm.Matches
		m.Stalls += qm.Stalls
		m.Latency.Merge(l.tc.Latency.Snapshot())
		m.Queues = append(m.Queues, qm)
	}
	m.MeanNS = m.Latency.Mean()
	m.P50NS = m.Latency.Quantile(0.50)
	m.P99NS = m.Latency.Quantile(0.99)

	for _, q := range s.queries {
		m.PerQuery = append(m.PerQuery, QueryMetrics{
			Name: q.name, Matches: q.nmatches.Load(), Since: q.since,
		})
		if q.rt == nil {
			if ss, ok := q.det.(shardStatser); ok {
				m.Shards = append(m.Shards, ShardGroupMetrics{Query: q.name, Shards: ss.Stats()})
			}
		}
	}
	return m
}

// promMaxSeries caps the per-lane / per-query / per-shard label
// cardinality of the Prometheus exposition: beyond this many entities only
// the aggregates are emitted (a 10k-query session must not emit 10k
// series per family). The JSON exposition is never capped.
const promMaxSeries = 64

// MetricsHandler returns an http.Handler exposing the session's telemetry:
//
//	/metrics            Prometheus text exposition format
//	/metrics.json       the full Metrics() snapshot as JSON
//	/debug/traces.json  the sampled event traces (Session.Traces) as JSON
//	/debug/vars         expvar-style JSON (published vars + "cep" snapshot)
//	/debug/pprof/...    the standard pprof profiles
//
// Serving is opt-in and caller-owned: mount the handler on any mux or
// server (`http.ListenAndServe(addr, s.MetricsHandler())`). Handlers
// snapshot on each request; the cost is the caller's, never the feed's.
func (s *Session) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeProm(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Metrics())
	})
	mux.HandleFunc("/debug/traces.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(s.Traces())
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, "{\n")
		first := true
		expvar.Do(func(kv expvar.KeyValue) {
			if !first {
				fmt.Fprintf(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
		})
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		snap, err := json.Marshal(s.Metrics())
		if err != nil {
			snap = []byte(`null`)
		}
		fmt.Fprintf(w, "%q: %s\n}\n", "cep", snap)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, "cep session telemetry\n\n/metrics\n/metrics.json\n/debug/traces.json\n/debug/vars\n/debug/pprof/\n")
	})
	return mux
}

// writeProm renders the Prometheus exposition from one fresh snapshot.
func (s *Session) writeProm(w http.ResponseWriter) {
	m := s.Metrics()
	p := telemetry.NewPromWriter(w)

	p.Header("cep_events_submitted_total", "counter", "Events accepted by Submit/SubmitBatch.")
	p.Int("cep_events_submitted_total", nil, m.EventsSubmitted)
	p.Header("cep_batches_submitted_total", "counter", "SubmitBatch calls accepted.")
	p.Int("cep_batches_submitted_total", nil, m.BatchesSubmitted)
	p.Header("cep_events_rejected_total", "counter", "Events refused for breaking timestamp order (ErrOutOfOrder).")
	p.Int("cep_events_rejected_total", nil, m.EventsRejected)
	p.Header("cep_events_routed_total", "counter", "Per-lane deliveries on the index-routed feed path.")
	p.Int("cep_events_routed_total", nil, m.EventsRouted)
	p.Header("cep_events_dropped_total", "counter", "Events the ingress index matched to no lane.")
	p.Int("cep_events_dropped_total", nil, m.EventsDropped)

	p.Header("cep_items_processed_total", "counter", "Queue items (event batches) consumed by workers.")
	p.Int("cep_items_processed_total", nil, m.ItemsProcessed)
	p.Header("cep_events_processed_total", "counter", "Events processed by workers, batches expanded.")
	p.Int("cep_events_processed_total", nil, m.EventsProcessed)
	p.Header("cep_matches_emitted_total", "counter", "Matches emitted across all lanes.")
	p.Int("cep_matches_emitted_total", nil, m.MatchesEmitted)
	p.Header("cep_queue_stalls_total", "counter", "Sends that found a lane queue full and blocked (back-pressure).")
	p.Int("cep_queue_stalls_total", nil, m.Stalls)

	p.Header("cep_queries", "gauge", "Registered queries.")
	p.Int("cep_queries", nil, int64(m.Queries))
	p.Header("cep_lanes", "gauge", "Worker lanes ever created (tombstones included).")
	p.Int("cep_lanes", nil, int64(m.Lanes))
	p.Header("cep_live_lanes", "gauge", "Worker lanes accepting work.")
	p.Int("cep_live_lanes", nil, int64(m.LiveLanes))
	p.Header("cep_generation", "counter", "Re-optimizations performed (query churn + drift).")
	p.Int("cep_generation", nil, int64(m.Generation))
	p.Header("cep_stream_seq", "counter", "Stream position: events submitted so far.")
	p.Int("cep_stream_seq", nil, int64(m.Seq))
	p.Header("cep_journal_records_total", "counter", "Control-plane journal entries ever recorded.")
	p.Int("cep_journal_records_total", nil, m.JournalRecorded)
	p.Header("cep_journal_dropped_total", "counter", "Journal entries overwritten by the bounded ring.")
	p.Int("cep_journal_dropped_total", nil, m.JournalDropped)
	p.Header("cep_traces_sampled_total", "counter", "Event traces captured by the sampling tracer.")
	p.Int("cep_traces_sampled_total", nil, m.TracesSampled)

	p.Header("cep_detection_latency_seconds", "histogram", "Sampled submit-to-match-emission latency.")
	p.Histogram("cep_detection_latency_seconds", nil, m.Latency)

	if n := len(m.Queues); n > 0 && n <= promMaxSeries {
		p.Header("cep_queue_depth", "gauge", "Instantaneous lane queue fill.")
		for _, q := range m.Queues {
			if !q.Retired {
				p.Int("cep_queue_depth", laneLabels(q), int64(q.Depth))
			}
		}
		p.Header("cep_queue_capacity", "gauge", "Lane queue capacity.")
		for _, q := range m.Queues {
			if !q.Retired {
				p.Int("cep_queue_capacity", laneLabels(q), int64(q.Capacity))
			}
		}
		p.Header("cep_lane_events_total", "counter", "Events processed per lane.")
		for _, q := range m.Queues {
			p.Int("cep_lane_events_total", laneLabels(q), q.Events)
		}
		p.Header("cep_lane_matches_total", "counter", "Matches emitted per lane.")
		for _, q := range m.Queues {
			p.Int("cep_lane_matches_total", laneLabels(q), q.Matches)
		}
		p.Header("cep_lane_stalls_total", "counter", "Back-pressure stalls per lane.")
		for _, q := range m.Queues {
			p.Int("cep_lane_stalls_total", laneLabels(q), q.Stalls)
		}
	}

	if n := len(m.PerQuery); n > 0 && n <= promMaxSeries {
		p.Header("cep_query_matches_total", "counter", "Matches emitted per query.")
		for _, q := range m.PerQuery {
			p.Int("cep_query_matches_total", telemetry.Labels{"query": q.Name}, q.Matches)
		}
	}

	if m.Drift != nil {
		p.Header("cep_drift_checks_total", "counter", "Drift checks performed.")
		p.Int("cep_drift_checks_total", nil, m.Drift.Checks)
		p.Header("cep_drift_reopts_total", "counter", "Drift-triggered re-optimizations.")
		p.Int("cep_drift_reopts_total", nil, m.Drift.Reopts)
	}

	nShards := 0
	for _, g := range m.Shards {
		nShards += len(g.Shards)
	}
	if nShards > 0 && nShards <= promMaxSeries {
		p.Header("cep_shard_events_total", "counter", "Events accepted per shard of registered sharded detectors.")
		for _, g := range m.Shards {
			for _, sh := range g.Shards {
				p.Int("cep_shard_events_total", shardLabels(g.Query, sh), sh.Events)
			}
		}
		p.Header("cep_shard_stalls_total", "counter", "Back-pressure stalls per shard.")
		for _, g := range m.Shards {
			for _, sh := range g.Shards {
				p.Int("cep_shard_stalls_total", shardLabels(g.Query, sh), sh.Stalls)
			}
		}
		p.Header("cep_shard_queue_depth", "gauge", "Instantaneous shard queue fill.")
		for _, g := range m.Shards {
			for _, sh := range g.Shards {
				p.Int("cep_shard_queue_depth", shardLabels(g.Query, sh), int64(sh.QueueDepth))
			}
		}
	}
}

func laneLabels(q QueueMetrics) telemetry.Labels {
	l := telemetry.Labels{"lane": fmt.Sprint(q.Lane), "kind": q.Kind}
	if q.Partitions > 0 {
		l["partition"] = fmt.Sprint(q.Partition)
	}
	return l
}

func shardLabels(query string, sh ShardStats) telemetry.Labels {
	return telemetry.Labels{"query": query, "shard": fmt.Sprint(sh.Shard)}
}
