package main

import (
	"math"
	"math/bits"
)

// hist is a preallocated log-bucket latency histogram over nanosecond
// values. Every power of two is split into histSub equal buckets, so a
// bucket is at most 1/histSub of its lower edge wide and an
// interpolated quantile is within 1 % of the sorted-sample quantile.
// Record allocates nothing; each client goroutine owns one hist per op
// type and they are merged after the run.
const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 35 // values up to 2^(histSubBits+histMaxExp) ns ≈ 73 min; larger ones clamp
	histBuckets = (histMaxExp + 2) * histSub
)

type hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    int64
}

// bucketOf returns the bucket index of v: exact below histSub, then
// histSub buckets per octave.
func bucketOf(v int64) int {
	if v < histSub {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - (histSubBits + 1)
	if e > histMaxExp {
		return histBuckets - 1
	}
	return (e+1)*histSub + int(v>>uint(e)) - histSub
}

// bucketBounds returns the half-open value range [lo, lo+width) of
// bucket i.
func bucketBounds(i int) (lo, width int64) {
	if i < histSub {
		return int64(i), 1
	}
	e := uint(i/histSub - 1)
	return int64(histSub+i%histSub) << e, 1 << e
}

// Record adds one latency sample.
func (h *hist) Record(ns int64) {
	h.counts[bucketOf(ns)]++
	h.n++
	h.sum += ns
}

// Merge adds o's samples to h.
func (h *hist) Merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of samples.
func (h *hist) Count() uint64 { return h.n }

// Mean returns the exact sample mean in nanoseconds (0 when empty).
func (h *hist) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns the nearest-rank q-quantile in nanoseconds — the
// ceil(q·n)-th smallest sample — interpolated linearly inside its
// bucket, so two runs whose samples differ report different values even
// when the quantile stays in one bucket.
func (h *hist) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range h.counts {
		if c == 0 || cum+c < rank {
			cum += c
			continue
		}
		lo, width := bucketBounds(i)
		return float64(lo) + float64(width)*(float64(rank-cum)-0.5)/float64(c)
	}
	return 0 // unreachable: the ranks sum to n
}
