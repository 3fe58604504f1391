// Package pool provides the shared worker/lifecycle machinery behind the
// concurrent runtime shapes (Session's per-query lanes, ShardedRuntime's
// hash-routed shards): N worker goroutines, each exclusively draining one
// bounded queue, under one lifecycle and one error model.
//
// The concurrency discipline is the one both shapes independently evolved
// and now share:
//
//   - an RWMutex guards the lifecycle flags; senders hold the read lock
//     across their queue sends, Shutdown takes the write lock to flip closed
//     and close the queues, so no send can ever race a channel close;
//   - Drain is a barrier implemented with per-lane tokens: it returns once
//     every item enqueued before it has been consumed;
//   - the first worker error is recorded under its own mutex, never under
//     the lifecycle lock — a worker must be able to record an error while a
//     producer holds the read lock blocked on that very worker's full queue;
//   - joined flips only after the workers are gone, making it the flag that
//     gates reads of worker-owned state (accumulated results).
package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Sentinel lifecycle errors. Callers translate them into their own error
// vocabulary with errors.Is.
var (
	// ErrClosed reports an operation on a pool that was already shut down.
	ErrClosed = errors.New("pool: closed")
	// ErrNotStarted reports a send or drain before Start.
	ErrNotStarted = errors.New("pool: not started")
	// ErrStarted reports an explicit Start of a running pool.
	ErrStarted = errors.New("pool: already started")
	// ErrNoLanes reports a Start with no lanes registered.
	ErrNoLanes = errors.New("pool: no lanes")
)

// Hooks configures the per-lane behavior of a Pool.
type Hooks[T any] struct {
	// Work processes one item on the lane's worker goroutine. Required.
	//
	// Queue-wait measurement contract: the pool adds no timestamps of its
	// own, so a caller measuring enqueue→dequeue wait must stamp the item
	// at send time (before Send/SendGrouped returns it to the queue) and
	// read the stamp first thing inside Work — everything between the two
	// is queue residency plus the worker's backlog, which is exactly the
	// wait the session's trace layer reports between its enqueue and
	// dequeue spans.
	Work func(lane int, item T)
	// Finish runs on the worker goroutine after the lane's queue is closed
	// and drained — the place to flush per-lane state. Optional.
	Finish func(lane int)
	// OnStall is invoked (on the sender's goroutine) when a Send or Grouped
	// send finds the lane's queue full and is about to block — the
	// back-pressure observability hook. Drain barrier tokens never count as
	// stalls. Optional.
	OnStall func(lane int)
}

// msg is one queue unit: an item or a drain barrier token.
type msg[T any] struct {
	item  T
	drain *sync.WaitGroup
}

// lane is one worker lane: its bounded queue plus a retirement flag. A
// retired lane's queue is closed and its worker has drained (or is
// draining) it; senders skip it. Lane indices are stable for the life of
// the pool — retiring a lane leaves a tombstone, it never renumbers the
// others.
type lane[T any] struct {
	ch      chan msg[T]
	retired bool
}

// Pool runs one worker goroutine per lane, each draining a bounded queue.
// Lanes are added before Start with AddLane or while running with
// AddLaneRunning, and retired individually with CloseLane; sends are safe
// for concurrent use and block when the destination queue is full
// (back-pressure).
type Pool[T any] struct {
	hooks Hooks[T]

	// mu guards the lifecycle flags and the lane list. Senders hold the read
	// lock across queue sends; Shutdown and CloseLane take the write lock to
	// flip closed and close the queues, so no send can race a channel close.
	// joined flips only after the workers are gone: it is the flag that makes
	// reading worker-owned state safe.
	mu      sync.RWMutex
	lanes   []*lane[T]
	started bool
	closed  bool
	joined  bool
	wg      sync.WaitGroup
	// open mirrors started && !closed for Open's lock-free fast path; it
	// is written under mu's write lock.
	open atomic.Bool

	// errMu guards err separately from mu: workers record errors while
	// senders may hold mu's read lock blocked on that worker's full queue.
	errMu sync.Mutex
	err   error // first recorded error
}

// New builds an empty pool with the given hooks.
func New[T any](hooks Hooks[T]) *Pool[T] {
	return &Pool[T]{hooks: hooks}
}

// AddLane registers one worker lane with a bounded queue of the given
// capacity and returns its index. Lanes must be added before Start; use
// AddLaneRunning to grow a started pool.
func (p *Pool[T]) AddLane(queueLen int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.started || p.closed {
		panic("pool: AddLane after Start or Shutdown")
	}
	return p.addLaneLocked(queueLen)
}

// AddLaneRunning registers one worker lane on a pool that may already be
// running: if the workers were launched, the new lane's worker starts
// immediately; before Start it behaves like AddLane. The new lane receives
// only items sent after it was added — a Broadcast in flight when the lane
// appears does not reach it. It errors on a closed pool.
func (p *Pool[T]) AddLaneRunning(queueLen int) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0, ErrClosed
	}
	i := p.addLaneLocked(queueLen)
	if p.started {
		p.wg.Add(1)
		go p.runWorker(i, p.lanes[i].ch)
	}
	return i, nil
}

func (p *Pool[T]) addLaneLocked(queueLen int) int {
	if queueLen <= 0 {
		queueLen = 1
	}
	p.lanes = append(p.lanes, &lane[T]{ch: make(chan msg[T], queueLen)})
	return len(p.lanes) - 1
}

// CloseLane retires one lane: its queue is closed, so its worker drains the
// remaining items, runs the Finish hook and exits, while the other lanes
// keep running. Senders skip retired lanes. Retiring a retired lane is a
// no-op; lane indices never shift. It errors on a closed pool or an
// out-of-range index.
func (p *Pool[T]) CloseLane(i int) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if i < 0 || i >= len(p.lanes) {
		return ErrNoLanes
	}
	l := p.lanes[i]
	if l.retired {
		return nil
	}
	l.retired = true
	if p.started {
		// Close under the write lock: no sender can be mid-send here. Before
		// Start no worker owns the queue, so leave it for garbage collection.
		close(l.ch)
	}
	return nil
}

// Lanes returns the number of registered lanes, including retired ones
// (lane indices are stable tombstones).
func (p *Pool[T]) Lanes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.lanes)
}

// LiveLanes returns the number of lanes accepting sends.
func (p *Pool[T]) LiveLanes() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	n := 0
	for _, l := range p.lanes {
		if !l.retired {
			n++
		}
	}
	return n
}

// QueueStats reports the instantaneous depth and capacity of lane i's
// queue (drain barrier tokens count toward depth). Reading a channel's
// length concurrently with sends and receives is safe; the result is a
// momentary observation, suitable for gauges. Retired or out-of-range
// lanes report 0, 0.
func (p *Pool[T]) QueueStats(i int) (depth, capacity int) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if i < 0 || i >= len(p.lanes) || p.lanes[i].retired {
		return 0, 0
	}
	ch := p.lanes[i].ch
	return len(ch), cap(ch)
}

// Start launches the worker goroutines. It errors on a closed, running or
// empty pool.
func (p *Pool[T]) Start() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.started {
		return ErrStarted
	}
	return p.startLocked()
}

// EnsureStarted starts the workers if they are not running yet. The
// read-lock fast path keeps the steady-state cost at one RLock for callers
// driving one lazy-start check per item.
func (p *Pool[T]) EnsureStarted() error {
	p.mu.RLock()
	started := p.started
	p.mu.RUnlock()
	if started {
		return nil // closed is re-checked under the lock by the send path
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrClosed
	}
	if p.started {
		return nil
	}
	return p.startLocked()
}

func (p *Pool[T]) startLocked() error {
	if len(p.lanes) == 0 {
		return ErrNoLanes
	}
	p.started = true
	p.open.Store(true)
	for i, l := range p.lanes {
		if l.retired {
			continue
		}
		p.wg.Add(1)
		go p.runWorker(i, l.ch)
	}
	return nil
}

// openLocked reports whether the pool accepts sends; the caller holds at
// least the read lock.
func (p *Pool[T]) openLocked() error {
	if p.closed {
		return ErrClosed
	}
	if !p.started {
		return ErrNotStarted
	}
	return nil
}

// Open reports whether the pool accepts sends: nil when started and not
// shut down, else ErrNotStarted or ErrClosed. A running pool answers from
// an atomic flag without taking the lock; a Shutdown racing the caller is
// still caught by the send path's own check.
func (p *Pool[T]) Open() error {
	if p.open.Load() {
		return nil
	}
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.openLocked()
}

// send enqueues with back-pressure, bumping the stall hook when the queue
// is full. The caller holds the read lock.
func (p *Pool[T]) send(lane int, m msg[T]) {
	ch := p.lanes[lane].ch
	select {
	case ch <- m:
	default:
		if p.hooks.OnStall != nil {
			p.hooks.OnStall(lane)
		}
		ch <- m
	}
}

// sendCtx is send with a cancellable blocking phase.
func (p *Pool[T]) sendCtx(ctx context.Context, lane int, m msg[T]) error {
	ch := p.lanes[lane].ch
	select {
	case ch <- m:
		return nil
	default:
		if p.hooks.OnStall != nil {
			p.hooks.OnStall(lane)
		}
		select {
		case ch <- m:
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Send enqueues one item on a lane, blocking on a full queue
// (back-pressure). A concurrent Shutdown waits for in-flight sends, so Send
// never races a queue close: it either enqueues or returns ErrClosed.
func (p *Pool[T]) Send(lane int, item T) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.openLocked(); err != nil {
		return err
	}
	if p.lanes[lane].retired {
		return ErrClosed
	}
	p.send(lane, msg[T]{item: item})
	return nil
}

// Grouped is one (lane, item) pair for SendGrouped.
type Grouped[T any] struct {
	Lane int
	Item T
}

// SendGrouped enqueues several (lane, item) pairs under one lifecycle
// check, so a concurrent Shutdown cannot interleave mid-group: either every
// pair is enqueued or none is and ErrClosed is returned.
func (p *Pool[T]) SendGrouped(pairs []Grouped[T]) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.openLocked(); err != nil {
		return err
	}
	for _, g := range pairs {
		if p.lanes[g.Lane].retired {
			return ErrClosed
		}
		p.send(g.Lane, msg[T]{item: g.Item})
	}
	return nil
}

// SendGroupedCtx is SendGrouped with a cancellable blocking phase: a
// non-nil ctx makes each back-pressured send abortable, in which case the
// group may have reached only a prefix of its lanes (the same partial
// delivery contract as a cancelled Broadcast).
func (p *Pool[T]) SendGroupedCtx(ctx context.Context, pairs []Grouped[T]) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.openLocked(); err != nil {
		return err
	}
	for _, g := range pairs {
		if p.lanes[g.Lane].retired {
			return ErrClosed
		}
		if ctx == nil {
			p.send(g.Lane, msg[T]{item: g.Item})
			continue
		}
		if err := p.sendCtx(ctx, g.Lane, msg[T]{item: g.Item}); err != nil {
			return err
		}
	}
	return nil
}

// Broadcast enqueues the item on every live lane, in lane order (retired
// lanes are skipped). A non-nil ctx makes each blocking send cancellable;
// on cancellation the item may have reached only a prefix of the lanes.
func (p *Pool[T]) Broadcast(ctx context.Context, item T) error {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if err := p.openLocked(); err != nil {
		return err
	}
	m := msg[T]{item: item}
	for i, l := range p.lanes {
		if l.retired {
			continue
		}
		if ctx == nil {
			l.ch <- m
			continue
		}
		if err := p.sendCtx(ctx, i, m); err != nil {
			return err
		}
	}
	return nil
}

// Drain is a mid-stream barrier: it blocks until every item enqueued before
// the call has been consumed by its lane's worker. Barrier tokens are not
// items: they bypass Work and never count as back-pressure stalls.
func (p *Pool[T]) Drain() error {
	p.mu.RLock()
	if err := p.openLocked(); err != nil {
		p.mu.RUnlock()
		return err
	}
	var barrier sync.WaitGroup
	for _, l := range p.lanes {
		if l.retired {
			continue
		}
		// Plain blocking send: tokens must not inflate stall counters.
		barrier.Add(1)
		l.ch <- msg[T]{drain: &barrier}
	}
	// Wait outside the lock: the tokens are enqueued, so the barrier
	// completes even if a concurrent Shutdown closes the queues meanwhile.
	p.mu.RUnlock()
	barrier.Wait()
	return nil
}

// DrainLanes is Drain restricted to the given lane indices: it blocks until
// every item enqueued on those lanes before the call has been consumed by
// their workers, leaving the other lanes untouched. A live re-optimization
// uses it to quiesce just the lanes it is about to splice instead of
// stalling the whole pool. Retired and out-of-range indices are skipped.
func (p *Pool[T]) DrainLanes(idxs []int) error {
	p.mu.RLock()
	if err := p.openLocked(); err != nil {
		p.mu.RUnlock()
		return err
	}
	var barrier sync.WaitGroup
	for _, i := range idxs {
		if i < 0 || i >= len(p.lanes) || p.lanes[i].retired {
			continue
		}
		barrier.Add(1)
		p.lanes[i].ch <- msg[T]{drain: &barrier}
	}
	p.mu.RUnlock()
	barrier.Wait()
	return nil
}

// Shutdown flips closed, closes the queues and joins the workers exactly
// once; a second call returns ErrClosed immediately (without waiting for
// the first to finish joining). Shutting down a never-started pool just
// marks it closed and joined — no workers ever ran, so per-lane Finish
// hooks do not fire.
func (p *Pool[T]) Shutdown() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return ErrClosed
	}
	p.closed = true
	p.open.Store(false)
	if !p.started {
		p.joined = true
		p.mu.Unlock()
		return nil
	}
	// Close the queues while still holding the write lock: senders hold the
	// read lock across their sends, so none can be mid-send here. Retired
	// lanes are already closed.
	for _, l := range p.lanes {
		if !l.retired {
			close(l.ch)
		}
	}
	p.mu.Unlock()
	p.wg.Wait()
	p.mu.Lock()
	p.joined = true
	p.mu.Unlock()
	return nil
}

// Started reports whether the workers were launched.
func (p *Pool[T]) Started() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.started
}

// Joined reports whether the workers are gone: worker-owned state (per-lane
// accumulations) is safe to read exactly when Joined is true.
func (p *Pool[T]) Joined() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.joined
}

// RecordErr keeps the first error.
func (p *Pool[T]) RecordErr(err error) {
	if err == nil {
		return
	}
	p.errMu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.errMu.Unlock()
}

// Err returns the first recorded error.
func (p *Pool[T]) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// runWorker is the worker loop: it owns lane-local state exclusively. The
// channel is captured at spawn so the loop never touches the lane slice,
// which AddLaneRunning may be growing concurrently.
func (p *Pool[T]) runWorker(lane int, ch chan msg[T]) {
	defer p.wg.Done()
	for m := range ch {
		if m.drain != nil {
			m.drain.Done()
			continue
		}
		p.hooks.Work(lane, m.item)
	}
	if p.hooks.Finish != nil {
		p.hooks.Finish(lane)
	}
}
