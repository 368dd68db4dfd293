package main

import (
	"math"
	"slices"
	"testing"
)

func TestGenerateIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, b := w.generate(7, 50_000), w.generate(7, 50_000)
		if !slices.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different sequences", w.name)
		}
		if c := w.generate(8, 50_000); slices.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same sequence", w.name)
		}
		// The traced run replays the first third of the untraced run.
		if short := w.generate(7, 10_000); !slices.Equal(short, a[:10_000]) {
			t.Errorf("%s: a shorter sequence is not a prefix of a longer one", w.name)
		}
	}
}

func TestGenerateMatchesSpec(t *testing.T) {
	const n = 400_000
	for _, w := range workloads {
		ops := w.generate(3, n)
		reads := 0
		perKey := make([]int, w.keys)
		for _, o := range ops {
			if o.key() < 0 || o.key() >= w.keys {
				t.Fatalf("%s: key %d outside [0,%d)", w.name, o.key(), w.keys)
			}
			perKey[o.key()]++
			if o.read() {
				reads++
			}
		}
		if got := 100 * float64(reads) / n; math.Abs(got-float64(w.readPct)) > 1 {
			t.Errorf("%s: %.2f %% reads, spec says %d %%", w.name, got, w.readPct)
		}
		// Key skew: the share of the hottest key, and of the 16 hottest,
		// against the distribution the spec names.
		want := make([]float64, w.keys)
		var norm float64
		for k := range want {
			want[k] = 1
			if w.zipfS > 0 {
				want[k] = math.Pow(float64(k+1), -w.zipfS)
			}
			norm += want[k]
		}
		var got16, want16 float64
		for k := 0; k < 16; k++ {
			got16 += float64(perKey[k]) / n
			want16 += want[k] / norm
		}
		if got, want := float64(perKey[0])/n, want[0]/norm; math.Abs(got-want) > 0.01 {
			t.Errorf("%s: hottest key drew %.4f of the ops, spec says %.4f", w.name, got, want)
		}
		if math.Abs(got16-want16) > 0.01 {
			t.Errorf("%s: 16 lowest keys drew %.4f of the ops, spec says %.4f", w.name, got16, want16)
		}
		for k, c := range perKey {
			if c == 0 && w.zipfS == 0 {
				t.Errorf("%s: uniform key %d never drawn in %d ops", w.name, k, n)
				break
			}
		}
	}
}
