package cep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/filterindex"
	"repro/internal/metrics"
	"repro/internal/pool"
)

// ShardStats is a point-in-time snapshot of one shard's counters: events
// accepted, batches accepted, matches emitted, back-pressure stalls and
// owned partitions.
type ShardStats = metrics.ShardSnapshot

// ShardConfig configures a ShardedRuntime. The zero value selects the
// defaults.
type ShardConfig struct {
	// Workers is the number of worker goroutines (shards). Default:
	// runtime.NumCPU().
	Workers int
	// QueueLen is the per-worker input queue capacity, in messages (a batch
	// counts as one message). When a worker's queue is full, Submit and
	// SubmitBatch block until the worker catches up — this bound is the
	// back-pressure mechanism that keeps a fast producer from buffering the
	// whole stream in memory. Default: 1024.
	QueueLen int
	// OnMatch, when non-nil, receives every match (including end-of-stream
	// flushes) instead of Close accumulating them. It is invoked from the
	// worker goroutines: calls for the same partition are sequential and in
	// stream order, but calls for different partitions on different shards
	// run concurrently, so the callback must be safe for concurrent use.
	// It must not call back into the runtime (Submit, SubmitBatch, Drain,
	// Close): the worker is blocked inside the callback, so waiting on its
	// own queue deadlocks.
	OnMatch func(*Match)
	// FilterIndex, when true, compiles the pattern's per-position type and
	// constant unary filters into an ingress index (internal/filterindex)
	// consulted before hash routing: events no position could ever consume
	// are dropped at Submit/SubmitBatch instead of occupying queue slots and
	// worker time. Dropping such events never changes the match set — every
	// position, including negated and Kleene ones, keeps a subscription —
	// though negation-held matches may be released slightly later (at the
	// next surviving event or at Flush).
	FilterIndex bool
}

func (c ShardConfig) withDefaults() ShardConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.NumCPU()
	}
	if c.QueueLen <= 0 {
		c.QueueLen = 1024
	}
	return c
}

// ShardedRuntime is the concurrent deployment shape of PartitionedRuntime:
// events are hash-routed by partition id across N worker goroutines, each
// owning a disjoint set of per-partition engines. Engines stay
// single-goroutine machines — the shard boundary is the concurrency
// boundary — so the match set is exactly the sequential PartitionedRuntime's
// on the same input: a partition's events are always handled by the same
// worker, in submission order, and matches never span partitions.
//
// Lifecycle: NewSharded → Start → Submit/SubmitBatch (any number of
// goroutines) → Flush (collect) or Close (discard). Drain may be called
// mid-stream as a barrier. After Flush or Close the runtime cannot be
// restarted.
//
// ShardedRuntime satisfies the Detector contract: Process lazily starts the
// workers and submits the event (matches are delivered asynchronously — via
// OnMatch, or accumulated for Flush — so Process itself returns none), and
// Flush stops intake, drains the queues, flushes every engine and returns
// the accumulated matches.
//
// Submit and SubmitBatch are safe for concurrent use; to preserve the
// engines' timestamp-order requirement, all events of one partition must be
// submitted in timestamp order (a single producer, or producers partitioned
// by key, both satisfy this). The queueing, lifecycle and error machinery
// is the shared internal/pool helper also driving Session.
type ShardedRuntime struct {
	cfg     ShardConfig
	workers []*shardWorker
	pool    *pool.Pool[shardMsg]
	// ingress is the pre-routing filter index (nil unless
	// cfg.FilterIndex); it is built once at construction and read-only
	// afterwards, so concurrent submitters share it without coordination.
	ingress *filterindex.Index
}

// shardErr translates pool lifecycle sentinels into the runtime's error
// vocabulary.
func shardErr(err error) error {
	switch {
	case err == nil:
		return nil
	case errors.Is(err, pool.ErrClosed):
		return fmt.Errorf("cep: sharded runtime: %w", ErrClosed)
	case errors.Is(err, pool.ErrNotStarted):
		return fmt.Errorf("cep: sharded runtime not started")
	case errors.Is(err, pool.ErrStarted):
		return fmt.Errorf("cep: sharded runtime already started")
	default:
		return err
	}
}

// recordErr keeps the first worker error for Close to report.
func (sr *ShardedRuntime) recordErr(err error) { sr.pool.RecordErr(err) }

// shardMsg is one unit on a worker queue: a single event or a whole
// per-shard sub-batch.
type shardMsg struct {
	ev  *Event
	sub *subBatch
}

// subBatch is one shard's slice of a SubmitBatch call. Sub-batches cycle
// through a sync.Pool — they cross goroutines (producer fills, worker
// drains), so per-P caching is the right ownership model. The producer owns
// a sub-batch until SendGrouped succeeds; then the worker owns it and
// releases it after processing.
type subBatch struct {
	evs []*Event
}

var subBatchPool = sync.Pool{New: func() any { return new(subBatch) }}

func getSubBatch() *subBatch { return subBatchPool.Get().(*subBatch) }

// release drops the event references (pooled sub-batches must not pin
// events) and parks the sub-batch.
func (b *subBatch) release() {
	for i := range b.evs {
		b.evs[i] = nil
	}
	b.evs = b.evs[:0]
	subBatchPool.Put(b)
}

// batchScratch is the per-SubmitBatch regrouping workspace, recycled via
// its own sync.Pool: the groups table and the send list persist across
// calls, while the sub-batches they point at are pooled separately because
// their ownership moves to the workers on a successful send.
type batchScratch struct {
	groups []*subBatch
	pairs  []pool.Grouped[shardMsg]
}

var batchScratchPool = sync.Pool{New: func() any { return new(batchScratch) }}

func getBatchScratch(lanes int) *batchScratch {
	sc := batchScratchPool.Get().(*batchScratch)
	if cap(sc.groups) < lanes {
		sc.groups = make([]*subBatch, lanes)
	} else {
		sc.groups = sc.groups[:lanes]
		for i := range sc.groups {
			sc.groups[i] = nil
		}
	}
	sc.pairs = sc.pairs[:0]
	return sc
}

// abort reclaims the sub-batches when nothing was enqueued: on a nil event,
// or on a SendGrouped lifecycle error (the shard pool never retires lanes,
// so a failed grouped send enqueued nothing).
func (sc *batchScratch) abort() {
	for i, g := range sc.groups {
		if g != nil {
			g.release()
			sc.groups[i] = nil
		}
	}
}

// release parks the scratch: sub-batch pointers are dropped (the workers
// own them now) and send-list entries cleared so pooled scratches never pin
// event slices.
func (sc *batchScratch) release() {
	for i := range sc.groups {
		sc.groups[i] = nil
	}
	for i := range sc.pairs {
		sc.pairs[i] = pool.Grouped[shardMsg]{}
	}
	sc.pairs = sc.pairs[:0]
	batchScratchPool.Put(sc)
}

type shardWorker struct {
	sr       *ShardedRuntime
	pr       *PartitionedRuntime
	dead     map[int]bool // partitions whose per-partition plan failed
	counters metrics.ShardCounters
	nParts   int
	matches  []*Match // accumulated when cfg.OnMatch == nil
}

// NewSharded builds a sharded runtime over the pattern. defaults supplies
// statistics for partitions absent from perPartition; both may be nil. The
// per-partition plans are generated lazily on first contact, exactly as in
// NewPartitioned. defaults and perPartition are read concurrently by the
// workers and must not be mutated after this call.
func NewSharded(p *Pattern, defaults *Stats, perPartition map[int]*Stats, cfg ShardConfig, opts ...Option) (*ShardedRuntime, error) {
	cfg = cfg.withDefaults()
	sr := &ShardedRuntime{cfg: cfg}
	sr.pool = pool.New(pool.Hooks[shardMsg]{
		Work:    sr.work,
		Finish:  sr.finish,
		OnStall: func(lane int) { sr.workers[lane].counters.AddStall() },
	})
	for i := 0; i < cfg.Workers; i++ {
		w := &shardWorker{
			sr: sr,
			pr: newPartitioned(p, defaults, perPartition, opts),
		}
		sr.workers = append(sr.workers, w)
		sr.pool.AddLane(cfg.QueueLen)
	}
	// Validate eagerly (once, not per worker) so that configuration errors
	// surface at construction, not at the first event.
	vrt, err := New(p, sr.workers[0].pr.defaults, opts...)
	if err != nil {
		return nil, err
	}
	if cfg.FilterIndex {
		// The per-partition plans may order joins differently, but every
		// plan consumes the same positions with the same unary filters, so
		// the validation runtime's compiled pattern declares the
		// subscriptions for all of them.
		subs := appendRuntimeSubs(nil, 0, vrt, true)
		sr.ingress = filterindex.Build(subs, nil)
	}
	return sr, nil
}

// Workers returns the number of worker goroutines (shards).
func (sr *ShardedRuntime) Workers() int { return len(sr.workers) }

// Start launches the worker goroutines. It errors if the runtime was
// already started or closed.
func (sr *ShardedRuntime) Start() error { return shardErr(sr.pool.Start()) }

// workerIndexFor routes a partition id to its shard index. The
// multiplicative hash decorrelates worker choice from common
// partition-numbering schemes (e.g. symbol % P) so that shards stay
// balanced even when Workers divides the partition stride.
func (sr *ShardedRuntime) workerIndexFor(partition int) int {
	h := uint64(partition) * 0x9E3779B97F4A7C15
	h ^= h >> 32
	return int(h % uint64(len(sr.workers)))
}

func (sr *ShardedRuntime) workerFor(partition int) *shardWorker {
	return sr.workers[sr.workerIndexFor(partition)]
}

// Process lazily starts the workers (if Start was not called) and submits
// the event to its partition's shard. Matches are delivered asynchronously —
// through OnMatch, or accumulated for Flush — so Process always returns a
// nil match slice. It is safe for concurrent use under the SubmitBatch
// ordering rules.
func (sr *ShardedRuntime) Process(e *Event) ([]*Match, error) {
	if e == nil {
		return nil, ErrNilEvent
	}
	if err := sr.pool.EnsureStarted(); err != nil {
		return nil, shardErr(err)
	}
	return nil, sr.Submit(e)
}

// Submit routes one event to its partition's shard, blocking when that
// shard's queue is full (back-pressure). A concurrent Close waits for
// in-flight submissions, so Submit never races a queue close: it either
// enqueues the event or returns the already-closed error.
//
// Unlike Session.Submit, this is not a batch of one: a shard message holds
// a single event inline, while a one-event sub-batch pays a pooled slice,
// the regrouping pass and an allocation per event. Sent that way,
// BenchmarkShardedSubmit measured about 690 vs 390 ns/op (medians of six
// runs on a 2-vCPU VM), so the per-event path stays.
func (sr *ShardedRuntime) Submit(e *Event) error {
	if e == nil {
		return ErrNilEvent
	}
	if sr.ingress != nil && !sr.ingress.Matches(e) {
		return nil
	}
	return shardErr(sr.pool.Send(sr.workerIndexFor(e.Partition), shardMsg{ev: e}))
}

// SubmitBatch routes a slice of events, regrouping it into one sub-batch
// per destination shard so that channel overhead amortises over the batch
// (at most Workers queue operations per call, however interleaved the
// partitions are). Events of one partition all route to one shard and keep
// their relative order inside its sub-batch, so per-partition stream order
// is preserved. The input slice is not retained; it may be reused as soon
// as the call returns.
func (sr *ShardedRuntime) SubmitBatch(events []*Event) error {
	if len(events) == 0 {
		return nil
	}
	sc := getBatchScratch(len(sr.workers))
	defer sc.release()
	for _, e := range events {
		if e == nil {
			sc.abort()
			return fmt.Errorf("cep: nil event in batch: %w", ErrNilEvent)
		}
		if sr.ingress != nil && !sr.ingress.Matches(e) {
			continue
		}
		i := sr.workerIndexFor(e.Partition)
		g := sc.groups[i]
		if g == nil {
			g = getSubBatch()
			sc.groups[i] = g
		}
		g.evs = append(g.evs, e)
	}
	for i, g := range sc.groups {
		if g != nil {
			sc.pairs = append(sc.pairs, pool.Grouped[shardMsg]{Lane: i, Item: shardMsg{sub: g}})
		}
	}
	// One lifecycle check covers the whole batch: a concurrent Close cannot
	// interleave mid-batch.
	if err := sr.pool.SendGrouped(sc.pairs); err != nil {
		sc.abort()
		return shardErr(err)
	}
	return nil
}

// ProcessBatch lazily starts the workers and submits the whole batch — the
// BatchDetector view of the sharded runtime. As with Process, matches are
// delivered asynchronously, so the returned slice is always nil.
func (sr *ShardedRuntime) ProcessBatch(events []*Event) ([]*Match, error) {
	for _, e := range events {
		if e == nil {
			return nil, ErrNilEvent
		}
	}
	if len(events) == 0 {
		return nil, nil
	}
	if err := sr.pool.EnsureStarted(); err != nil {
		return nil, shardErr(err)
	}
	return nil, sr.SubmitBatch(events)
}

// Drain is a mid-stream barrier: it blocks until every event submitted
// before the call has been fully processed, then returns. Matches keep
// flowing to OnMatch (or keep accumulating for Close); engines are not
// flushed. Concurrent Submit calls during a Drain are allowed but are not
// covered by the barrier.
func (sr *ShardedRuntime) Drain() error { return shardErr(sr.pool.Drain()) }

// Flush ends the stream: it stops intake, waits for every queued event to
// be processed, flushes all engines (releasing matches held back by
// trailing-negation windows) and joins the workers. It returns the
// accumulated matches — every match since Start, in per-partition stream
// order, concatenated shard by shard — or nil when an OnMatch callback
// consumed them. The error is the first engine-construction failure any
// worker encountered, if any. Flushing a flushed (or closed) runtime
// returns ErrClosed; flushing a never-started runtime succeeds with no
// matches.
func (sr *ShardedRuntime) Flush() ([]*Match, error) {
	if err := sr.pool.Shutdown(); err != nil {
		return nil, shardErr(err)
	}
	var out []*Match
	if sr.cfg.OnMatch == nil {
		for _, w := range sr.workers {
			out = append(out, w.matches...)
		}
	}
	return out, sr.pool.Err()
}

// Close stops intake, drains and joins the workers, and discards the
// accumulated matches (OnMatch deliveries still happen while draining). It
// is idempotent: closing a closed or flushed runtime returns nil. Use Flush
// to collect the matches instead.
func (sr *ShardedRuntime) Close() error {
	_, err := sr.Flush()
	if errors.Is(err, ErrClosed) {
		return nil
	}
	return err
}

// PlanFor describes the plan used by one partition, or "" if that partition
// has not been seen. Unlike the counters it reads engine-owned state, so it
// must only be called before Start or after Close.
func (sr *ShardedRuntime) PlanFor(partition int) string {
	return sr.workerFor(partition).pr.PlanFor(partition)
}

// Matches returns the total number of matches emitted so far across all
// shards. It is safe to call concurrently with submission.
func (sr *ShardedRuntime) Matches() int64 {
	var total int64
	for i, w := range sr.workers {
		total += w.counters.Snapshot(i).Matches
	}
	return total
}

// Stats snapshots the per-shard counters. It is safe to call concurrently
// with submission, so a monitoring loop can watch queue stalls and match
// rates live. QueueDepth/QueueCap are read from the live queues at
// snapshot time.
func (sr *ShardedRuntime) Stats() []ShardStats {
	out := make([]ShardStats, len(sr.workers))
	for i, w := range sr.workers {
		out[i] = w.counters.Snapshot(i)
		out[i].QueueDepth, out[i].QueueCap = sr.pool.QueueStats(i)
	}
	return out
}

// work is the pool Work hook: it runs on the lane's worker goroutine, which
// owns the shard's per-partition engines exclusively, so no engine is ever
// touched by two goroutines.
func (sr *ShardedRuntime) work(lane int, msg shardMsg) {
	w := sr.workers[lane]
	if msg.sub != nil {
		w.counters.AddBatch()
		for _, e := range msg.sub.evs {
			w.process(e)
		}
		msg.sub.release()
		return
	}
	w.process(msg.ev)
}

// finish is the pool Finish hook: the lane's queue is closed and drained,
// so flush the shard's engines.
func (sr *ShardedRuntime) finish(lane int) {
	w := sr.workers[lane]
	ms, err := w.pr.Flush()
	if err != nil && !errors.Is(err, ErrClosed) {
		sr.recordErr(err)
	}
	w.emit(ms)
}

func (w *shardWorker) process(e *Event) {
	if w.dead[e.Partition] {
		return
	}
	rt, err := w.pr.runtimeFor(e.Partition)
	if err != nil {
		// Per-partition statistics produced an unplannable configuration;
		// record the first error and drop this partition's events — marking
		// the partition dead so later events skip the planner entirely.
		w.sr.recordErr(err)
		if w.dead == nil {
			w.dead = make(map[int]bool)
		}
		w.dead[e.Partition] = true
		return
	}
	if n := len(w.pr.runtimes); n != w.nParts {
		w.nParts = n
		w.counters.SetPartitions(n)
	}
	w.counters.AddEvents(1)
	ms, err := rt.Process(e)
	if err != nil {
		w.sr.recordErr(err)
		return
	}
	w.emit(ms)
}

func (w *shardWorker) emit(ms []*Match) {
	if len(ms) == 0 {
		return
	}
	w.counters.AddMatches(len(ms))
	if fn := w.sr.cfg.OnMatch; fn != nil {
		for _, m := range ms {
			fn(m)
		}
		return
	}
	w.matches = append(w.matches, ms...)
}
