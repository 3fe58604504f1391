package main

import (
	"math/bits"
	"sort"
	"sync/atomic"
)

// subBits sets the histogram resolution: 2^subBits buckets per power of
// two, so a bucket spans at most 1/128 of its value.
const subBits = 7

// hist is a fixed-bucket log-linear histogram of nanosecond values. It is
// allocated once and filled with atomic increments, so match sinks on
// several lane goroutines record into it without a lock.
type hist struct {
	b [64 << subBits]atomic.Uint64
	n atomic.Uint64
}

func bucketOf(v int64) int {
	if v < 1<<subBits {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - 1 - subBits
	return (shift+1)<<subBits | int(uint64(v)>>shift&(1<<subBits-1))
}

// bucketRange returns the lowest value of bucket i and its width.
func bucketRange(i int) (lo, width float64) {
	if i < 1<<subBits {
		return float64(i), 1
	}
	shift := i>>subBits - 1
	mant := i & (1<<subBits - 1)
	return float64(uint64(1<<subBits|mant) << shift), float64(uint64(1) << shift)
}

func (h *hist) add(v int64) {
	h.b[bucketOf(v)].Add(1)
	h.n.Add(1)
}

// quantile returns the q-quantile, interpolated linearly inside the bucket
// that holds its rank. It returns 0 for an empty histogram.
func (h *hist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := q * float64(n-1)
	var cum float64
	for i := range h.b {
		c := float64(h.b[i].Load())
		if c == 0 {
			continue
		}
		if cum+c > rank {
			lo, w := bucketRange(i)
			return lo + w*(rank-cum+0.5)/c
		}
		cum += c
	}
	lo, w := bucketRange(len(h.b) - 1)
	return lo + w
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (the same rule as numpy's default). xs is sorted in
// place; an empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	i := int(pos)
	if i+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[i] + (pos-float64(i))*(xs[i+1]-xs[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
