// Command perfbench is the repository's benchmark. It drives the public
// cep.Session API from one submitter goroutine through three workloads
// (stocks, keyed-shared, fanout), checks every query's match count against
// a single-query reference, and prints the end-to-end metrics, or with
// --trace 1 the per-layer metrics, by name and unit. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage:
//
//	bash perfbench/run.sh --workload stocks --seed 1 --seconds 10 --trace 0
//
// See README.md in this directory for what each workload and metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime/pprof"

	cep "repro"
)

// metricDef names one metric and its unit. The lists below are the ones
// BENCHMARK.json declares; the smoke test keeps the two in step.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"events_per_s", "events/s"},
	{"latency_p50_us", "us"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
	{"churn_op_p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"session.submit_us_p50", "us"},
	{"session.submit_busy_frac", "frac"},
	{"session.register_ms", "ms"},
	{"session.start_ms", "ms"},
	{"session.add_query_ms_p50", "ms"},
	{"session.remove_query_ms_p50", "ms"},
	{"session.churn_op_ms_p90", "ms"},
	{"session.heap_kb_per_churn_op", "KB/op"},
	{"session.drain_ms", "ms"},
	{"stats.measure_ms", "ms"},
	{"pool.stalls_per_kevent", "stalls/kevent"},
	{"pool.handoff_ns_per_item", "ns/item"},
	{"filterindex.lanes_per_event", "lanes/event"},
	{"filterindex.dropped_frac", "frac"},
	{"filterindex.hits_ns_per_event", "ns/event"},
	{"filterindex.build_ms", "ms"},
	{"mqo.engine_ns_per_event", "ns/event"},
	{"mqo.probes_per_event", "probes/event"},
	{"mqo.matches_per_kprobe", "matches/kprobe"},
	{"mqo.created_per_event", "inst/event"},
	{"mqo.peak_partial", "count"},
	{"mqo.neg_killed_per_event", "kills/event"},
	{"mqo.optimize_ms", "ms"},
	{"mqo.adopt_ms", "ms"},
	{"tree.engine_ns_per_event", "ns/event"},
	{"tree.peak_partial", "count"},
	{"core.plan_us_per_query", "us/query"},
	{"trace.filter_us_p50", "us"},
	{"trace.queue_wait_us_p50", "us"},
	{"trace.engine_us_p50", "us"},
	{"trace.emit_us_p50", "us"},
	{"trace.overhead_frac", "frac"},
	{"sink.matches_per_event", "matches/event"},
	{"sink.latency_p99_us", "us"},
	{"gen.lag_us_p99", "us"},
}

// setupReps is how many times a run sets the session up; setup_s is the
// median. The traced run, which does not report setup_s, uses fewer.
const (
	setupReps       = 5
	tracedSetupReps = 3
)

// traceConfig samples one SubmitBatch call in eight in the traced run and
// keeps the last 512 traces, all from the paced phase.
var traceConfig = &cep.TraceConfig{SampleEvery: 8, RingCap: 512}

type options struct {
	seed       int64
	seconds    float64
	trace      bool
	cpuprofile string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var o options
	var name string
	var trace int
	flag.StringVar(&name, "workload", "", "stocks, keyed-shared, fanout, or all")
	flag.Int64Var(&o.seed, "seed", 1, "stream seed: the same seed gives the same events")
	flag.Float64Var(&o.seconds, "seconds", 10, "time budget of the saturated and paced phases together (they take 70% of it)")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run and the layer replay")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the timed phases to this file (one workload only)")
	flag.Parse()
	o.trace = trace == 1
	if flag.NArg() > 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: usage: --workload NAME --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	var todo []*spec
	if name == "all" {
		if o.cpuprofile != "" {
			fmt.Fprintln(os.Stderr, "perfbench: -cpuprofile needs a single workload")
			os.Exit(2)
		}
		todo = specs
	} else {
		sp, err := specByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(2)
		}
		todo = []*spec{sp}
	}
	ok := true
	for _, sp := range todo {
		res := runWorkload(sp, o)
		printResult(sp.name, res, o.trace)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// scaled returns a copy of sp with its event and op counts multiplied by
// f, for the smoke test.
func scaled(sp *spec, f float64) *spec {
	c := *sp
	mul := func(n int) int { return max(1, int(float64(n)*f)) }
	c.warmEvents = mul(sp.warmEvents)
	c.segEvents = mul(sp.segEvents)
	c.satMinSegs = mul(sp.satMinSegs)
	c.churnOps = mul(sp.churnOps)
	c.replayEvents = mul(sp.replayEvents)
	return &c
}

// runWorkload makes one run and gathers its metrics. A failed operation or
// a reference mismatch makes the result incorrect; the metrics measured so
// far are still reported.
func runWorkload(sp *spec, o options) result {
	res := result{Metrics: map[string]metricValue{}}
	vals := map[string]float64{}
	profile := func() func() { return func() {} }
	if o.cpuprofile != "" {
		profile = func() func() {
			f, err := os.Create(o.cpuprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cpuprofile:", err)
				return func() {}
			}
			if err := pprof.StartCPUProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cpuprofile:", err)
				f.Close()
				return func() {}
			}
			return func() {
				pprof.StopCPUProfile()
				if err := f.Close(); err != nil {
					fmt.Fprintln(os.Stderr, "perfbench: cpuprofile:", err)
				}
			}
		}
	}
	var ops []*opCounter
	var err error
	if !o.trace {
		r := newSessionRun(sp, o.seed, o.seconds, false)
		ops = append(ops, &r.ops)
		err = r.run(nil, setupReps, profile)
		endToEndValues(r, vals)
		describe(sp, r)
	} else {
		// The traced run reports no end-to-end metric, so its phases get
		// half the time. The untraced baseline repeats set-up, warm-up, the
		// saturated phase, for trace.overhead_frac, and the paced phase,
		// for sink.latency_p99_us.
		secs := o.seconds / 2
		base := newSessionRun(sp, o.seed, secs, false)
		ops = append(ops, &base.ops)
		err = base.setup(1, nil)
		if err == nil {
			err = base.warmup()
		}
		if err == nil {
			err = base.saturated()
		}
		if err == nil {
			err = base.pacedPhase()
		}
		if base.s != nil {
			_ = base.ops.must(base.s.Close(), "close baseline")
		}
		r := newSessionRun(sp, o.seed, secs, true)
		ops = append(ops, &r.ops)
		if err == nil {
			err = r.run(traceConfig, tracedSetupReps, profile)
		}
		layerValues(base, r, vals)
		describe(sp, r)
		if err == nil {
			var rv map[string]float64
			rv, err = replay(sp, r.qs, o.seed)
			if err != nil {
				r.ops.must(err, "replay")
			}
			for k, v := range rv {
				vals[k] = v
			}
		}
	}
	for _, c := range ops {
		res.Attempted += c.attempted
		res.Failed += c.failed
		if c.first != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", sp.name, c.first)
		}
	}
	if err != nil && res.Failed == 0 {
		res.Failed++
	}
	res.Correct = err == nil && res.Failed == 0
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			res.Correct = false
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return res
}

func endToEndValues(r *sessionRun, vals map[string]float64) {
	vals["events_per_s"] = median(r.segRate)
	if r.rec != nil {
		vals["latency_p50_us"] = r.rec.quantile(0.5) / 1e3
	}
	vals["setup_s"] = median(r.setupS)
	vals["live_heap_mb"] = float64(r.heapEnd) / 1e6
	vals["churn_op_p50_ms"] = median(r.pairMS)
}

func layerValues(base, r *sessionRun, vals map[string]float64) {
	vals["session.submit_us_p50"] = median(r.submitUS)
	vals["session.submit_busy_frac"] = frac(r.satBusy.Seconds(), r.satWall.Seconds())
	vals["session.register_ms"] = median(r.registerMS)
	vals["session.start_ms"] = median(r.startMS)
	vals["session.add_query_ms_p50"] = median(r.addMS)
	vals["session.remove_query_ms_p50"] = median(r.removeMS)
	vals["session.churn_op_ms_p90"] = quantile(r.pairMS, 0.9)
	vals["session.heap_kb_per_churn_op"] = frac((float64(r.heapEnd)-float64(r.heapStart))/1024, float64(len(r.addMS)))
	vals["session.drain_ms"] = median(r.drainMS)
	vals["pool.stalls_per_kevent"] = 1000 * frac(float64(r.stalls), float64(r.submitted))
	vals["filterindex.lanes_per_event"] = frac(float64(r.routed), float64(r.submitted))
	vals["filterindex.dropped_frac"] = frac(float64(r.dropped), float64(r.submitted))
	vals["trace.filter_us_p50"] = median(r.traces.filterUS)
	vals["trace.queue_wait_us_p50"] = median(r.traces.queueUS)
	vals["trace.engine_us_p50"] = median(r.traces.engineUS)
	vals["trace.emit_us_p50"] = median(r.traces.emitUS)
	vals["trace.overhead_frac"] = 1 - frac(median(r.segRate), median(base.segRate))
	vals["sink.matches_per_event"] = frac(float64(r.matchesTotal()), float64(r.fed))
	if base.rec != nil {
		vals["sink.latency_p99_us"] = base.rec.quantile(0.99) / 1e3
	}
	vals["gen.lag_us_p99"] = quantile(r.lagUS, 0.99)
}

// describe reports the run's shape on standard error: sizes, sample
// counts and how the session laid the queries out.
func describe(sp *spec, r *sessionRun) {
	fmt.Fprintf(os.Stderr, "perfbench: %s: %d queries, window %dms, %d events fed, %d saturated segments of %d, paced %d events at %.0f ev/s (%d timed detections), %d churn ops, %d matches\n",
		sp.name, len(sp.queries), sp.window, r.fed, len(r.segRate), sp.segEvents,
		r.pacedEvents, sp.pacedRate, r.recSamples(), len(r.addMS), r.matchesTotal())
	fmt.Fprintf(os.Stderr, "perfbench: %s: reference took %.1fs\n", sp.name, r.refTime.Seconds())
	if r.traced {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d paced traces\n", sp.name, r.traces.traces)
	}
	if r.share != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d eligible, %d shared in %d components, %d lanes\n",
			sp.name, r.share.Eligible, r.share.Shared, len(r.share.Components), r.lanes)
	}
}

func printResult(name string, res result, trace bool) {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%s %-30s %14.4f %s\n", name, d.name, res.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("%s correct=%t attempted=%d failed=%d\n", name, res.Correct, res.Attempted, res.Failed)
	blob, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(blob))
}
