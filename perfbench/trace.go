package main

import "repro/internal/trace"

// traceStats holds per-stage durations read from the session's sampled
// event traces, in microseconds: one filter sample per trace, and one
// queue/engine/emit sample per lane the traced batch reached.
type traceStats struct {
	traces                              int
	filterUS, queueUS, engineUS, emitUS []float64
}

// summarizeTraces turns the span offsets of the traces whose first event
// has stream sequence number firstSeq or later into stage durations, so
// only the paced phase counts. Shared DAG lanes
// record dequeue, engine and emit spans; private lanes record no engine
// span, so their engine time runs from dequeue to emit and includes the
// sink calls.
func summarizeTraces(ts []trace.Trace, firstSeq uint64) traceStats {
	type laneSpans struct{ enq, deq, eng, emit int64 }
	var out traceStats
	for _, t := range ts {
		if t.Seq < firstSeq {
			continue
		}
		out.traces++
		lanes := map[int]*laneSpans{}
		lane := func(i int) *laneSpans {
			l := lanes[i]
			if l == nil {
				l = &laneSpans{-1, -1, -1, -1}
				lanes[i] = l
			}
			return l
		}
		for _, sp := range t.Spans {
			switch sp.Stage {
			case trace.StageFilter:
				out.filterUS = append(out.filterUS, float64(sp.AtNS)/1e3)
			case trace.StageEnqueue:
				if sp.Lane >= 0 {
					lane(sp.Lane).enq = sp.AtNS
				}
			case trace.StageDequeue:
				lane(sp.Lane).deq = sp.AtNS
			case trace.StageEngine:
				lane(sp.Lane).eng = sp.AtNS
			case trace.StageEmit:
				lane(sp.Lane).emit = sp.AtNS
			}
		}
		for _, l := range lanes {
			if l.enq >= 0 && l.deq >= 0 {
				out.queueUS = append(out.queueUS, float64(l.deq-l.enq)/1e3)
			}
			end := l.eng
			if end < 0 {
				end = l.emit
			}
			if l.deq >= 0 && end >= 0 {
				out.engineUS = append(out.engineUS, float64(end-l.deq)/1e3)
			}
			if l.eng >= 0 && l.emit >= 0 {
				out.emitUS = append(out.emitUS, float64(l.emit-l.eng)/1e3)
			}
		}
	}
	return out
}
