package main

import (
	"fmt"
	"math/rand"

	cep "repro"
	"repro/internal/workload"
)

// spec fixes one workload: its query set, its event stream, and the size of
// every phase. The query set and the statistics sample are fixed; the seed
// varies only the live stream, so runs with different seeds measure the
// same plans on different samples.
type spec struct {
	name string
	why  string
	// queries are the workload's original queries with Name, Pattern and
	// Algorithm set; Stats is measured at set-up.
	queries []cep.QueryConfig
	// window is the queries' time window, for the report.
	window cep.Time
	// newStream returns the fill function of a fresh generator for the
	// seed: each call yields the next n events, in timestamp order.
	newStream func(seed int64) func(n int) []*cep.Event
	// pacedRate is the open-loop rate of the paced phase, events/s.
	pacedRate float64
	// warmEvents are fed before any timed phase.
	warmEvents int
	// segEvents is the size of one saturated segment; satMinSegs segments
	// always run, more while the phase's time share lasts.
	segEvents  int
	satMinSegs int
	// measureEvents is the size of the history sample cep.Measure reads
	// per query.
	measureEvents int
	// churnOps add/remove pairs run in the churn phase, each feeding
	// churnBatches batches while the copy is live.
	churnOps     int
	churnBatches int
	// replayEvents is the stream prefix the layer replay feeds.
	replayEvents int
}

// batchSize is the number of events per SubmitBatch call.
const batchSize = 256

var specs = []*spec{stocksSpec(), keyedSpec(), fanoutSpec()}

func specByName(name string) (*spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (want stocks, keyed-shared, fanout or all)", name)
}

// stocksSpec is the paper's §7.2 workload: the stock-tick stream and all
// five pattern categories, sizes 3 and 4, four patterns per size.
func stocksSpec() *spec {
	const universeSeed, querySeed = 1, 1
	const window = 500 * cep.Millisecond
	st := workload.NewStocks(workload.StockConfig{Seed: universeSeed})
	var qs []cep.QueryConfig
	for _, cat := range workload.Categories() {
		for i, p := range st.PatternSet(cat, []int{3, 4}, 4, window, querySeed) {
			qs = append(qs, cep.QueryConfig{
				Name: fmt.Sprintf("%s-%d", cat, i), Pattern: p,
			})
		}
	}
	return &spec{
		name:    "stocks",
		why:     "the paper's stock stream and five pattern categories: heavy on emission and private tree engines",
		queries: qs, window: window,
		newStream: func(seed int64) func(int) []*cep.Event {
			return stocksStream(universeSeed, seed)
		},
		pacedRate:     60_000,
		warmEvents:    100_000,
		segEvents:     200_000,
		satMinSegs:    3,
		measureEvents: 8192,
		churnOps:      64,
		churnBatches:  8,
		replayEvents:  32_768,
	}
}

// stocksChunk is how many ticks one workload.Stocks.Generate call makes;
// the stream is a sequence of such chunks, each shifted to start after the
// previous one ends.
const stocksChunk = 4096

func stocksStream(universeSeed, seed int64) func(int) []*cep.Event {
	st := workload.NewStocks(workload.StockConfig{Seed: universeSeed})
	var buf []*cep.Event
	var offset cep.Time
	var chunk int64
	return func(n int) []*cep.Event {
		out := make([]*cep.Event, 0, n)
		for len(out) < n {
			if len(buf) == 0 {
				st.Config.Seed = seed*1_000_003 + chunk
				st.Config.Events = stocksChunk
				chunk++
				buf = st.Generate()
				for _, e := range buf {
					e.TS += offset
				}
				offset = buf[len(buf)-1].TS + 1
			}
			k := min(n-len(out), len(buf))
			out = append(out, buf[:k]...)
			buf = buf[k:]
		}
		return out
	}
}

// keyedSpec is the `cepbench -fig partition` shape: a quiet A/B head pair
// and eight hot tails, every position chained by k-equality, so all 64
// queries share one key-partitioned (A ⋈ B) component.
func keyedSpec() *spec {
	const nQueries, nTails = 64, 8
	const window = 3000 * cep.Millisecond
	qs := make([]cep.QueryConfig, nQueries)
	for i := range qs {
		tail := fmt.Sprintf("T%d", i%nTails)
		p := cep.Seq(window,
			cep.E("A", "a"), cep.E("B", "b"), cep.E(tail, "c"),
		).Where(
			cep.AttrCmp("a", "k", cep.Eq, "b", "k"),
			cep.AttrCmp("b", "k", cep.Eq, "c", "k"),
			cep.AttrCmp("a", "v", cep.Lt, "b", "v"),
			cep.AttrCmp("b", "v", cep.Lt, "c", "v"),
			cep.Cmp(cep.Ref("c", "v"), cep.Ge, cep.Const(float64(6+(i/nTails)%3))),
		)
		qs[i] = cep.QueryConfig{Name: fmt.Sprintf("q%02d", i), Pattern: p}
	}
	return &spec{
		name:    "keyed-shared",
		why:     "64 k-chained queries on one shared key-partitioned DAG: heavy on nested-loop join probes",
		queries: qs, window: window,
		newStream: func(seed int64) func(int) []*cep.Event {
			const kCard, vCard = 64, 10
			head := []*cep.Schema{cep.NewSchema("A", "k", "v"), cep.NewSchema("B", "k", "v")}
			tails := make([]*cep.Schema, nTails)
			for i := range tails {
				tails[i] = cep.NewSchema(fmt.Sprintf("T%d", i), "k", "v")
			}
			rng := rand.New(rand.NewSource(seed))
			var ts cep.Time
			return func(n int) []*cep.Event {
				out := make([]*cep.Event, n)
				for i := range out {
					var s *cep.Schema
					switch r := rng.Float64(); {
					case r < 0.05:
						s = head[0]
					case r < 0.10:
						s = head[1]
					default:
						s = tails[rng.Intn(nTails)]
					}
					ts++
					out[i] = cep.NewEvent(s, ts, float64(rng.Intn(kCard)), float64(rng.Intn(vCard)))
				}
				return out
			}
		},
		pacedRate:     50_000,
		warmEvents:    60_000,
		segEvents:     150_000,
		satMinSegs:    3,
		measureEvents: 8192,
		churnOps:      24,
		churnBatches:  8,
		replayEvents:  32_768,
	}
}

// fanoutSpec is the `cepbench -fig index` shape: 2000 two-term sequences
// with constant equalities over 16 types, so ingress routing does almost
// all the work.
func fanoutSpec() *spec {
	const nQueries, nTypes, vCard = 2000, 16, 400
	const querySeed = 2
	const window = 4000 * cep.Millisecond
	typeNames := make([]string, nTypes)
	for i := range typeNames {
		typeNames[i] = fmt.Sprintf("T%02d", i)
	}
	qrng := rand.New(rand.NewSource(querySeed))
	qs := make([]cep.QueryConfig, nQueries)
	for i := range qs {
		ta, tb := typeNames[qrng.Intn(nTypes)], typeNames[qrng.Intn(nTypes)]
		p := cep.Seq(window, cep.E(ta, "a"), cep.E(tb, "b"))
		if i%4 == 3 {
			lo := float64(qrng.Intn(vCard - 10))
			p = p.Where(
				cep.Cmp(cep.Ref("a", "v"), cep.Ge, cep.Const(lo)),
				cep.Cmp(cep.Ref("a", "v"), cep.Lt, cep.Const(lo+10)),
				cep.Cmp(cep.Ref("b", "v"), cep.Eq, cep.Const(float64(qrng.Intn(vCard)))),
			)
		} else {
			p = p.Where(
				cep.Cmp(cep.Ref("a", "v"), cep.Eq, cep.Const(float64(qrng.Intn(vCard)))),
				cep.Cmp(cep.Ref("b", "v"), cep.Eq, cep.Const(float64(qrng.Intn(vCard)))),
			)
		}
		qs[i] = cep.QueryConfig{Name: fmt.Sprintf("q%04d", i), Pattern: p}
	}
	return &spec{
		name:    "fanout",
		why:     "2000 two-term queries with constant equalities: heavy on filter-index routing and lane handoff",
		queries: qs, window: window,
		newStream: func(seed int64) func(int) []*cep.Event {
			schemas := make([]*cep.Schema, nTypes)
			for i := range schemas {
				schemas[i] = cep.NewSchema(typeNames[i], "v")
			}
			rng := rand.New(rand.NewSource(seed))
			var ts cep.Time
			return func(n int) []*cep.Event {
				out := make([]*cep.Event, n)
				for i := range out {
					ts++
					out[i] = cep.NewEvent(schemas[rng.Intn(nTypes)], ts, float64(rng.Intn(vCard)))
				}
				return out
			}
		},
		pacedRate:     100_000,
		warmEvents:    300_000,
		segEvents:     400_000,
		satMinSegs:    3,
		measureEvents: 8192,
		churnOps:      64,
		churnBatches:  8,
		replayEvents:  32_768,
	}
}

// historySeed generates the statistics sample. It is not a --seed value
// the benchmark is given, and it is the same in every run, so every seed
// plans the same queries the same way and only the live stream varies.
const historySeed = -1

// history returns the sample cep.Measure reads at set-up: the first
// measureEvents events of the historySeed stream.
func history(sp *spec) []*cep.Event {
	return newStream(sp, historySeed).next(sp.measureEvents)
}

// stream stamps global serial numbers on a generator's events, so a match's
// latest event (highest Serial) identifies the batch that completed it.
type stream struct {
	fill   func(n int) []*cep.Event
	serial int64
}

func newStream(sp *spec, seed int64) *stream { return &stream{fill: sp.newStream(seed)} }

func (s *stream) next(n int) []*cep.Event {
	evs := s.fill(n)
	for _, e := range evs {
		s.serial++
		e.Serial = s.serial
	}
	return evs
}
