package enginetest

import "testing"

// FuzzDifferential drives the differential harness from fuzzed inputs:
// the seed picks the random query set and stream, the remaining bytes pick
// the workload shape. Any crash or match-set divergence between the
// batched/pooled Session configurations and the per-query reference is a
// finding. CI runs this as a short `-fuzztime` smoke; the committed corpus
// under testdata/fuzz keeps the interesting shapes in every plain
// `go test` run.
func FuzzDifferential(f *testing.F) {
	f.Add(int64(1), uint8(3), uint16(200), uint8(16))
	f.Add(int64(42), uint8(0), uint16(80), uint8(0))
	f.Add(int64(7), uint8(5), uint16(400), uint8(63))
	f.Add(int64(1234), uint8(2), uint16(300), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, nq uint8, ne uint16, batch uint8) {
		nQueries := 1 + int(nq)%6
		nEvents := 50 + int(ne)%600
		b := 1 + int(batch)%64
		if err := checkDifferential(seed, nQueries, nEvents, b); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzPartitionDifferential is the partitioned axis of the fuzz harness: a
// keyed-query mix evaluated on P = 2..7 partition lanes per shared
// component must reproduce the per-query reference match sets exactly. The
// committed corpus pins lane counts around hash-boundary shapes (prime lane
// counts, single-key streams via tiny workloads) that table-driven seeds
// would not stumble onto. The top bit of nq selects the hostile-key
// variant (NaN, -0, +0 and x-less events against keyed self-joins).
func FuzzPartitionDifferential(f *testing.F) {
	f.Add(int64(11), uint8(3), uint16(250), uint8(16), uint8(0))
	f.Add(int64(12), uint8(5), uint16(400), uint8(0), uint8(2))
	f.Add(int64(13), uint8(1), uint16(120), uint8(33), uint8(5))
	f.Add(int64(35), uint8(0x83), uint16(300), uint8(8), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nq uint8, ne uint16, batch, p uint8) {
		nQueries := 1 + int(nq&0x7f)%6
		nEvents := 50 + int(ne)%500
		b := 1 + int(batch)%64
		parts := 2 + int(p)%6
		hostile := nq&0x80 != 0
		if err := checkPartitionDifferential(seed, nQueries, nEvents, b, parts, hostile); err != nil {
			t.Fatal(err)
		}
	})
}
