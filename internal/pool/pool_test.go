package pool

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestLifecycleErrors(t *testing.T) {
	p := New(Hooks[int]{Work: func(int, int) {}})
	if err := p.Start(); !errors.Is(err, ErrNoLanes) {
		t.Fatalf("Start on empty pool = %v, want ErrNoLanes", err)
	}
	p.AddLane(4)
	if err := p.Send(0, 1); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Send before Start = %v, want ErrNotStarted", err)
	}
	if err := p.Drain(); !errors.Is(err, ErrNotStarted) {
		t.Fatalf("Drain before Start = %v, want ErrNotStarted", err)
	}
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); !errors.Is(err, ErrStarted) {
		t.Fatalf("double Start = %v, want ErrStarted", err)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := p.Shutdown(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double Shutdown = %v, want ErrClosed", err)
	}
	if err := p.Send(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Shutdown = %v, want ErrClosed", err)
	}
	if !p.Joined() {
		t.Fatal("pool not joined after Shutdown")
	}
}

func TestNeverStartedShutdown(t *testing.T) {
	p := New(Hooks[int]{
		Work:   func(int, int) {},
		Finish: func(int) { t.Error("Finish ran on a never-started pool") },
	})
	p.AddLane(1)
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if !p.Joined() || !errors.Is(p.Open(), ErrClosed) {
		t.Fatal("never-started pool not closed+joined after Shutdown")
	}
}

func TestWorkAndFinishOrdering(t *testing.T) {
	var mu sync.Mutex
	got := map[int][]int{}
	finished := map[int]bool{}
	p := New(Hooks[int]{
		Work: func(lane, item int) {
			mu.Lock()
			if finished[lane] {
				t.Error("Work after Finish")
			}
			got[lane] = append(got[lane], item)
			mu.Unlock()
		},
		Finish: func(lane int) {
			mu.Lock()
			finished[lane] = true
			mu.Unlock()
		},
	})
	for i := 0; i < 3; i++ {
		p.AddLane(8)
	}
	if err := p.EnsureStarted(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := p.Send(i%3, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Broadcast(nil, 100); err != nil {
		t.Fatal(err)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	for lane := 0; lane < 3; lane++ {
		if !finished[lane] {
			t.Fatalf("lane %d never finished", lane)
		}
		if n := len(got[lane]); n != 11 {
			t.Fatalf("lane %d processed %d items, want 11", lane, n)
		}
		// Per-lane order is submission order.
		for i := 0; i+1 < len(got[lane])-1; i++ {
			if got[lane][i] > got[lane][i+1] {
				t.Fatalf("lane %d out of order: %v", lane, got[lane])
			}
		}
	}
}

func TestDrainBarrier(t *testing.T) {
	var processed atomic.Int64
	p := New(Hooks[int]{Work: func(int, int) { processed.Add(1) }})
	p.AddLane(1024)
	p.AddLane(1024)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := p.Send(i%2, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if got := processed.Load(); got != 500 {
		t.Fatalf("drain returned with %d items processed, want 500", got)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainLanesSubset(t *testing.T) {
	// Lane 1's worker is blocked; DrainLanes on lane 0 alone must complete
	// anyway, and count only lane 0's items.
	release := make(chan struct{})
	var lane0 atomic.Int64
	p := New(Hooks[int]{Work: func(lane, _ int) {
		if lane == 1 {
			<-release
			return
		}
		lane0.Add(1)
	}})
	p.AddLane(64)
	p.AddLane(64)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := p.Send(0, i); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Send(1, 0); err != nil { // parks lane 1's worker
		t.Fatal(err)
	}
	if err := p.DrainLanes([]int{0}); err != nil {
		t.Fatal(err)
	}
	if got := lane0.Load(); got != 50 {
		t.Fatalf("DrainLanes returned with %d lane-0 items processed, want 50", got)
	}
	// Out-of-range and retired indices are skipped, not an error.
	if err := p.CloseLane(0); err != nil {
		t.Fatal(err)
	}
	if err := p.DrainLanes([]int{-1, 0, 7}); err != nil {
		t.Fatal(err)
	}
	close(release)
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := p.DrainLanes([]int{0}); err != ErrClosed {
		t.Fatalf("DrainLanes on closed pool: %v, want ErrClosed", err)
	}
}

func TestStallHookAndBackPressure(t *testing.T) {
	release := make(chan struct{})
	var stalls atomic.Int64
	p := New(Hooks[int]{
		Work:    func(int, int) { <-release },
		OnStall: func(int) { stalls.Add(1) },
	})
	p.AddLane(1)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	// First item wedges the worker, second fills the queue, third stalls.
	if err := p.Send(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(0, 2); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.Broadcast(ctx, 3) }()
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) && err != nil {
		t.Fatalf("cancelled Broadcast = %v", err)
	}
	if stalls.Load() == 0 {
		t.Fatal("full queue produced no stall callback")
	}
	close(release)
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestFirstErrorWins(t *testing.T) {
	p := New(Hooks[int]{Work: func(int, int) {}})
	p.AddLane(1)
	e1, e2 := errors.New("first"), errors.New("second")
	p.RecordErr(nil)
	p.RecordErr(e1)
	p.RecordErr(e2)
	if got := p.Err(); got != e1 {
		t.Fatalf("Err() = %v, want first", got)
	}
}

func TestConcurrentShutdownIdempotent(t *testing.T) {
	p := New(Hooks[int]{Work: func(int, int) {}})
	p.AddLane(64)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := p.Send(0, i); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	var closedErrs atomic.Int64
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := p.Shutdown(); errors.Is(err, ErrClosed) {
				closedErrs.Add(1)
			} else if err != nil {
				t.Errorf("Shutdown = %v", err)
			}
		}()
	}
	wg.Wait()
	if closedErrs.Load() != 3 {
		t.Fatalf("%d of 4 concurrent Shutdowns saw ErrClosed, want 3", closedErrs.Load())
	}
}

// TestDynamicLanes grows a running pool with AddLaneRunning and retires a
// lane with CloseLane: the new lane's worker must process items sent after
// it appeared, the retired lane must drain its queue, run Finish once, and
// drop out of Broadcast/Drain, and lane indices must stay stable.
func TestDynamicLanes(t *testing.T) {
	var mu sync.Mutex
	got := map[int][]int{}
	finished := map[int]int{}
	p := New(Hooks[int]{
		Work: func(lane, item int) {
			mu.Lock()
			got[lane] = append(got[lane], item)
			mu.Unlock()
		},
		Finish: func(lane int) {
			mu.Lock()
			finished[lane]++
			mu.Unlock()
		},
	})
	p.AddLane(4)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	if err := p.Broadcast(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	idx, err := p.AddLaneRunning(4)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("new lane index %d, want 1", idx)
	}
	if err := p.Broadcast(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(got[0]) != 2 || len(got[1]) != 1 || got[1][0] != 2 {
		t.Fatalf("pre-close distribution wrong: %v", got)
	}
	mu.Unlock()

	if err := p.CloseLane(0); err != nil {
		t.Fatal(err)
	}
	if err := p.CloseLane(0); err != nil {
		t.Fatal(err) // idempotent
	}
	if p.LiveLanes() != 1 || p.Lanes() != 2 {
		t.Fatalf("live=%d total=%d, want 1/2", p.LiveLanes(), p.Lanes())
	}
	if err := p.Broadcast(context.Background(), 3); err != nil {
		t.Fatal(err)
	}
	if err := p.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := p.Send(0, 9); !errors.Is(err, ErrClosed) {
		t.Fatalf("Send to retired lane = %v, want ErrClosed", err)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got[0]) != 2 {
		t.Fatalf("retired lane received items after close: %v", got[0])
	}
	if len(got[1]) != 2 || got[1][1] != 3 {
		t.Fatalf("surviving lane missed items: %v", got[1])
	}
	if finished[0] != 1 || finished[1] != 1 {
		t.Fatalf("finish counts %v, want exactly once per lane", finished)
	}
}

// TestAddLaneRunningConcurrentBroadcast races lane growth against a hot
// broadcast loop (run under -race): every broadcast must reach a
// consistent prefix of lanes and the pool must stay coherent.
func TestAddLaneRunningConcurrentBroadcast(t *testing.T) {
	var count atomic.Int64
	p := New(Hooks[int]{Work: func(int, int) { count.Add(1) }})
	p.AddLane(16)
	if err := p.Start(); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			if err := p.Broadcast(context.Background(), i); err != nil {
				t.Errorf("Broadcast: %v", err)
				return
			}
		}
	}()
	for i := 0; i < 8; i++ {
		if _, err := p.AddLaneRunning(16); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := p.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if n := count.Load(); n < 500 {
		t.Fatalf("only %d work calls for 500 broadcasts over >=1 lanes", n)
	}
}
