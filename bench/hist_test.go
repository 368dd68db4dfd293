package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracle is the nearest-rank quantile of a sorted sample.
func oracle(sorted []int64, q float64) float64 {
	return float64(sorted[int(math.Ceil(q*float64(len(sorted))))-1])
}

func TestHistQuantilesMatchSortedOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Log-normal latencies around 80 µs with a heavy tail, split
		// over two client histograms and merged.
		var a, b hist
		samples := make([]int64, 200_000)
		for i := range samples {
			v := int64(80_000 * math.Exp(rng.NormFloat64()*0.8))
			if rng.Intn(100) == 0 {
				v *= 40
			}
			samples[i] = v
			if i%2 == 0 {
				a.Record(v)
			} else {
				b.Record(v)
			}
		}
		a.Merge(&b)
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		if a.Count() != uint64(len(samples)) {
			t.Fatalf("seed %d: merged count %d, want %d", seed, a.Count(), len(samples))
		}
		var sum float64
		for _, v := range samples {
			sum += float64(v)
		}
		if got, want := a.Mean(), sum/float64(len(samples)); math.Abs(got-want) > 1e-6*want {
			t.Errorf("seed %d: mean %v, want %v", seed, got, want)
		}
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1} {
			got, want := a.Quantile(q), oracle(samples, q)
			if rel := math.Abs(got-want) / want; rel > 0.01 {
				t.Errorf("seed %d: q%.3f = %.0f, sorted oracle %.0f (error %.2f %% > 1 %%)", seed, q, got, want, 100*rel)
			}
		}
	}
}

func TestHistBucketsCoverEveryValue(t *testing.T) {
	for _, v := range []int64{-5, 0, 1, histSub - 1, histSub, histSub + 1, 1000, 1 << 20, 1<<40 + 12345, math.MaxInt64} {
		i := bucketOf(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, i)
		}
		lo, width := bucketBounds(i)
		if v >= 0 && i < histBuckets-1 && (v < lo || v >= lo+width) {
			t.Errorf("value %d landed in bucket %d = [%d,%d)", v, i, lo, lo+width)
		}
		if width > 1 && float64(width)/float64(lo) > 1.0/histSub {
			t.Errorf("bucket %d is %d wide at %d: wider than 1/%d", i, width, lo, histSub)
		}
	}
}

func TestHistRecordDoesNotAllocate(t *testing.T) {
	var h hist
	v := int64(1)
	if n := testing.AllocsPerRun(1000, func() { h.Record(v); v += 977 }); n != 0 {
		t.Errorf("Record allocates %v times per call", n)
	}
}
