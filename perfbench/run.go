package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	cep "repro"
)

// Shares of --seconds given to the saturated and paced phases. Set-up,
// warm-up and churn have fixed sizes; the reference check is untimed.
const (
	satShare   = 0.35
	pacedShare = 0.65
)

// sessionConfig is the one session set-up every workload uses; every other
// field stays at the library default (telemetry on, tracing off).
func sessionConfig(tr *cep.TraceConfig) cep.SessionConfig {
	return cep.SessionConfig{ShareSubplans: true, FilterIndex: true, PartitionWorkers: 2, Trace: tr}
}

// opCounter counts the operations a run attempts and the ones that fail,
// and keeps the first error for the report. The operations are the
// SubmitBatch, AddQuery and RemoveQuery calls and the per-query checks;
// any other call that fails counts as one more failed operation.
type opCounter struct {
	attempted, failed int
	first             error
}

// note records one operation.
func (c *opCounter) note(err error, what string) error {
	c.attempted++
	if err != nil {
		c.failed++
		err = fmt.Errorf("%s: %w", what, err)
		if c.first == nil {
			c.first = err
		}
	}
	return err
}

// must records a call that is not an operation, if it failed.
func (c *opCounter) must(err error, what string) error {
	if err == nil {
		return nil
	}
	return c.note(err, what)
}

// pacedRec times the paced phase's detections. Events are created in
// batches: every event of batch b is due when the batch is, at due[b]
// nanoseconds after base. A detection is timed from the due time of its
// latest event (highest Serial) to its first sink call: when one event
// completes several matches of a query at once, as a Kleene term does, the
// burst is one sample, so a few bursts cannot outweigh every other
// detection in the percentiles.
type pacedRec struct {
	base time.Time
	s0   int64 // Serial of the phase's first event
	due  []int64
	win  [pacedWindows]hist
}

// pacedWindows is how many consecutive windows of batches the paced phase
// is cut into. Each latency percentile is the median over the windows of
// the window's percentile, so one pause moves one window, not the figure.
const pacedWindows = 20

// quantile returns the median over the paced windows of their q-quantile.
func (p *pacedRec) quantile(q float64) float64 {
	var xs []float64
	for i := range p.win {
		if p.win[i].n.Load() > 0 {
			xs = append(xs, p.win[i].quantile(q))
		}
	}
	return median(xs)
}

func (p *pacedRec) observe(m *cep.Match, last *atomic.Int64) {
	var hi int64
	for _, g := range m.Positions {
		for _, e := range g {
			if e != nil && e.Serial > hi {
				hi = e.Serial
			}
		}
	}
	k := hi - p.s0
	if k < 0 || k >= int64(len(p.due))*batchSize || last.Swap(hi) == hi {
		return
	}
	b := int(k / batchSize)
	p.win[b*pacedWindows/len(p.due)].add(time.Since(p.base).Nanoseconds() - p.due[b])
}

// sessionRun is one session driven through the four phases from a single
// submitter goroutine: the caller's.
type sessionRun struct {
	sp     *spec
	seed   int64
	secs   float64
	traced bool
	ops    opCounter

	s       *cep.Session
	st      *stream
	history []*cep.Event      // the statistics sample
	qs      []cep.QueryConfig // the registered originals, with Stats
	counts  []atomic.Int64    // matches per original query
	copies  atomic.Int64      // matches of the churn copies
	paced   atomic.Pointer[pacedRec]
	fed     int64 // events submitted

	// Set-up spans, one per repetition.
	setupS, measureMS, registerMS, startMS []float64
	// Saturated phase.
	segRate, drainMS []float64
	satBusy, satWall time.Duration
	// Paced phase.
	rec             *pacedRec
	submitUS, lagUS []float64
	pacedEvents     int64
	traces          traceStats
	// Churn phase.
	addMS, removeMS, pairMS []float64
	heapStart, heapEnd      uint64
	stalls, routed          int64
	dropped, submitted      int64
	// How the session laid the queries out, for the report.
	share *cep.ShareReport
	lanes int
	// Wall time of the untimed reference computation, for the report.
	refTime time.Duration
}

func newSessionRun(sp *spec, seed int64, secs float64, traced bool) *sessionRun {
	return &sessionRun{sp: sp, seed: seed, secs: secs, traced: traced,
		counts: make([]atomic.Int64, len(sp.queries))}
}

// sink is the OnMatch of original query i: a counter bump, plus a latency
// sample during the paced phase. It takes no lock; last holds the Serial
// of the query's latest timed detection.
func (r *sessionRun) sink(i int) func(*cep.Match) {
	c := &r.counts[i]
	var last atomic.Int64
	return func(m *cep.Match) {
		c.Add(1)
		if p := r.paced.Load(); p != nil {
			p.observe(m, &last)
		}
	}
}

// setup builds the session reps times and keeps the last one: each rep
// measures every query's statistics on the history sample, creates the
// session, registers every query and starts it.
func (r *sessionRun) setup(reps int, tr *cep.TraceConfig) error {
	r.st = newStream(r.sp, r.seed)
	r.history = history(r.sp)
	for rep := 0; rep < reps; rep++ {
		if r.s != nil {
			if err := r.ops.must(r.s.Close(), "close set-up session"); err != nil {
				return err
			}
		}
		runtime.GC()
		t0 := time.Now()
		qs := make([]cep.QueryConfig, len(r.sp.queries))
		for i, qc := range r.sp.queries {
			qc.Stats = cep.Measure(r.history, qc.Pattern)
			qc.OnMatch = r.sink(i)
			qs[i] = qc
		}
		t1 := time.Now()
		s := cep.NewSession(sessionConfig(tr))
		for _, qc := range qs {
			if err := r.ops.must(s.Register(qc), "register "+qc.Name); err != nil {
				return err
			}
		}
		t2 := time.Now()
		if err := r.ops.must(s.Start(), "start"); err != nil {
			return err
		}
		t3 := time.Now()
		r.s, r.qs = s, qs
		r.share, r.lanes = s.ShareReport(), s.Metrics().Lanes
		r.setupS = append(r.setupS, t3.Sub(t0).Seconds())
		r.measureMS = append(r.measureMS, ms(t1.Sub(t0)))
		r.registerMS = append(r.registerMS, ms(t2.Sub(t1)))
		r.startMS = append(r.startMS, ms(t3.Sub(t2)))
	}
	return nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// submit feeds evs in batches and returns the time spent inside
// SubmitBatch.
func (r *sessionRun) submit(evs []*cep.Event) (time.Duration, error) {
	var busy time.Duration
	for i := 0; i < len(evs); i += batchSize {
		b := evs[i:min(i+batchSize, len(evs))]
		t := time.Now()
		err := r.ops.note(r.s.SubmitBatch(b), "submit")
		busy += time.Since(t)
		if err != nil {
			return busy, err
		}
		r.fed += int64(len(b))
	}
	return busy, nil
}

func (r *sessionRun) drain() error {
	return r.ops.must(r.s.Drain(), "drain")
}

// warmup feeds the first warmEvents events of the stream, untimed.
func (r *sessionRun) warmup() error {
	if _, err := r.submit(r.st.next(r.sp.warmEvents)); err != nil {
		return err
	}
	return r.drain()
}

// maxSatSegs caps the saturated phase, so a fast host does not grow the
// untimed reference computation without bound.
const maxSatSegs = 40

// saturated runs closed-loop segments: each is generated first, then timed
// from its first SubmitBatch to the end of the Drain that follows it.
func (r *sessionRun) saturated() error {
	deadline := time.Now().Add(time.Duration(satShare * r.secs * float64(time.Second)))
	for seg := 0; seg < r.sp.satMinSegs || (seg < maxSatSegs && time.Now().Before(deadline)); seg++ {
		evs := r.st.next(r.sp.segEvents)
		t0 := time.Now()
		busy, err := r.submit(evs)
		if err != nil {
			return err
		}
		td := time.Now()
		if err := r.drain(); err != nil {
			return err
		}
		wall := time.Since(t0)
		r.drainMS = append(r.drainMS, ms(time.Since(td)))
		r.segRate = append(r.segRate, float64(len(evs))/wall.Seconds())
		r.satBusy += busy
		r.satWall += wall
	}
	return nil
}

// pacedPhase runs the open loop: batch b is due (b+1)·batchSize/rate after
// the phase starts; the next batch is generated while the submitter waits.
func (r *sessionRun) pacedPhase() error {
	rate := r.sp.pacedRate
	nb := max(int(rate*pacedShare*r.secs/batchSize), 1)
	rec := &pacedRec{s0: r.st.serial + 1, due: make([]int64, nb)}
	for b := range rec.due {
		rec.due[b] = int64(float64((b+1)*batchSize) / rate * 1e9)
	}
	r.rec = rec
	r.submitUS = make([]float64, 0, nb)
	r.lagUS = make([]float64, 0, nb)
	evs := r.st.next(batchSize)
	firstSeq := uint64(r.fed) + 1
	rec.base = time.Now()
	r.paced.Store(rec)
	for b := 0; b < nb; b++ {
		if d := time.Duration(rec.due[b]) - time.Since(rec.base); d > 0 {
			time.Sleep(d)
		}
		start := time.Since(rec.base)
		err := r.ops.note(r.s.SubmitBatch(evs), "submit")
		end := time.Since(rec.base)
		if err != nil {
			return err
		}
		r.fed += int64(len(evs))
		r.lagUS = append(r.lagUS, float64(start.Nanoseconds()-rec.due[b])/1e3)
		r.submitUS = append(r.submitUS, float64((end-start).Nanoseconds())/1e3)
		if b+1 < nb {
			evs = r.st.next(batchSize)
		}
	}
	err := r.drain()
	r.paced.Store(nil)
	r.pacedEvents = int64(nb) * batchSize
	if r.traced {
		r.traces = summarizeTraces(r.s.Traces(), firstSeq)
	}
	return err
}

// churn adds a renamed copy of one of the workload's queries, feeds
// churnBatches batches, and removes the copy again, churnOps times. Each
// timed call starts on a drained session, so it measures the operation and
// not the backlog its barrier would wait for. The live heap is read after
// the last removal, before Flush.
func (r *sessionRun) churn() error {
	if r.traced {
		r.heapStart = liveHeap()
	}
	n := len(r.qs)
	for op := 0; op < r.sp.churnOps; op++ {
		qc := r.qs[op*7%n]
		qc.Name = qc.Name + "~churn" + strconv.Itoa(op)
		qc.OnMatch = func(*cep.Match) { r.copies.Add(1) }
		if err := r.drain(); err != nil {
			return err
		}
		t := time.Now()
		if err := r.ops.note(r.s.AddQuery(qc), "add "+qc.Name); err != nil {
			return err
		}
		r.addMS = append(r.addMS, ms(time.Since(t)))
		if _, err := r.submit(r.st.next(r.sp.churnBatches * batchSize)); err != nil {
			return err
		}
		if err := r.drain(); err != nil {
			return err
		}
		t = time.Now()
		if err := r.ops.note(r.s.RemoveQuery(qc.Name), "remove "+qc.Name); err != nil {
			return err
		}
		r.removeMS = append(r.removeMS, ms(time.Since(t)))
	}
	for i := range r.addMS {
		r.pairMS = append(r.pairMS, (r.addMS[i]+r.removeMS[i])/2)
	}
	if err := r.drain(); err != nil {
		return err
	}
	r.heapEnd = liveHeap()
	return nil
}

// liveHeap returns the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// finish reads the session's counters, flushes it, and checks every
// original query's match count against the single-query reference.
func (r *sessionRun) finish() error {
	m := r.s.Metrics()
	r.stalls, r.routed, r.dropped, r.submitted = m.Stalls, m.EventsRouted, m.EventsDropped, m.EventsSubmitted
	if _, err := r.s.Flush(); err != nil {
		return r.ops.must(err, "flush")
	}
	t := time.Now()
	ref, err := reference(r.sp, r.qs, r.seed, r.fed, true)
	r.refTime = time.Since(t)
	if err != nil {
		return r.ops.must(err, "reference")
	}
	var bad []string
	for i := range r.qs {
		r.ops.attempted++
		if got := r.counts[i].Load(); got != ref[i] {
			r.ops.failed++
			bad = append(bad, fmt.Sprintf("%s: session %d, reference %d", r.qs[i].Name, got, ref[i]))
		}
	}
	if len(bad) > 0 {
		err := fmt.Errorf("%d of %d queries differ from the reference, first %s", len(bad), len(r.qs), bad[0])
		if r.ops.first == nil {
			r.ops.first = err
		}
		return err
	}
	return nil
}

// run drives the four phases. With trace set the session samples event
// traces, and the run keeps the per-layer spans.
func (r *sessionRun) run(tr *cep.TraceConfig, setupReps int, profile func() func()) error {
	if err := r.setup(setupReps, tr); err != nil {
		return err
	}
	if err := r.warmup(); err != nil {
		return err
	}
	stop := profile()
	err := r.saturated()
	if err == nil {
		err = r.pacedPhase()
	}
	if err == nil {
		err = r.churn()
	}
	stop()
	if err != nil {
		_ = r.s.Close() // the run already failed; the first error is kept
		return err
	}
	return r.finish()
}

func (r *sessionRun) recSamples() uint64 {
	if r.rec == nil {
		return 0
	}
	var n uint64
	for i := range r.rec.win {
		n += r.rec.win[i].n.Load()
	}
	return n
}

// matchesTotal sums every query's matches, the churn copies included.
func (r *sessionRun) matchesTotal() int64 {
	t := r.copies.Load()
	for i := range r.counts {
		t += r.counts[i].Load()
	}
	return t
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
