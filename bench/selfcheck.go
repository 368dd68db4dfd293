package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// maxDriftPct is the stationarity alarm: a set of runs whose second
// halves go more than this much faster or slower than their first
// halves (median bench.drift_pct of the set) is not measuring a steady
// state. Single runs beyond it are listed but do not fail the check: a
// neighbour's load moves one run's halves apart in either direction, a
// drifting workload moves every run's the same way.
const maxDriftPct = 5

// selfCheck runs the untraced benchmark as two sets of n runs — run i
// of either set uses seed+i, as the driver gives every run another
// seed — and fails if the two sets' medians of any end-to-end metric
// differ by more than the metric's bound, any op failed, or either set
// drifts.
func selfCheck(ws []workload, c runConfig, n int) error {
	var problems []string
	for _, w := range ws {
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				rc := c
				rc.seed = c.seed + int64(i)
				res, err := runEndToEnd(w, rc)
				if err != nil {
					return err
				}
				if res.failed > 0 {
					problems = append(problems, fmt.Sprintf("%s set %c run %d: %d of %d ops failed: %v", w.name, "AB"[s], i+1, res.failed, res.attempted, res.firstErr))
				}
				for k, v := range res.metrics {
					sets[s][k] = append(sets[s][k], v)
				}
			}
		}
		fmt.Printf("## %s: two sets of %d runs, median [q1 q3] (spread = (q3-q1)/median)\n", w.name, n)
		for s, set := range sets {
			drifts := set["bench.drift_pct"]
			if len(drifts) < n {
				problems = append(problems, fmt.Sprintf("%s set %c: runs too short to measure bench.drift_pct", w.name, "AB"[s]))
				continue
			}
			if d := median(drifts); math.Abs(d) > maxDriftPct {
				problems = append(problems, fmt.Sprintf("%s set %c: median bench.drift_pct %+.1f exceeds %d: the workload is not stationary", w.name, "AB"[s], d, maxDriftPct))
			}
			for i, d := range drifts {
				if math.Abs(d) > maxDriftPct {
					fmt.Printf("note: set %c run %d: bench.drift_pct %+.1f\n", "AB"[s], i+1, d)
				}
			}
		}
		for _, d := range append(slices.Clone(endToEndMetrics), metric{name: "bench.drift_pct", unit: "%"}) {
			if len(sets[0][d.name]) < n || len(sets[1][d.name]) < n {
				continue // drift of runs too short to have one, reported above
			}
			a, b := summarize(sets[0][d.name]), summarize(sets[1][d.name])
			diff := math.Abs(b.median-a.median) / math.Abs(a.median)
			verdict := ""
			if d.bound > 0 {
				verdict = "ok"
				if diff > d.bound {
					verdict = "FAIL"
					problems = append(problems, fmt.Sprintf("%s %s: set medians %.4g and %.4g differ by %.1f %%, bound %.0f %%", w.name, d.name, a.median, b.median, 100*diff, 100*d.bound))
				}
				verdict = fmt.Sprintf("diff %5.2f%% of bound %2.0f%% %s", 100*diff, 100*d.bound, verdict)
			}
			fmt.Printf("%-16s %-6s A %s  B %s  %s\n", d.name, d.unit, a.format(d.bound > 0), b.format(d.bound > 0), verdict)
		}
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Println("FAIL:", p)
		}
		return fmt.Errorf("%d checks failed", len(problems))
	}
	fmt.Println("selfcheck passed")
	return nil
}

type summary struct{ median, q1, q3 float64 }

// format prints the summary, with the quartile distance as a share of
// the median where that means something (not for a drift around zero).
func (s summary) format(spread bool) string {
	out := fmt.Sprintf("%10.4g [%10.4g %10.4g]", s.median, s.q1, s.q3)
	if spread {
		out += fmt.Sprintf(" %4.1f%%", 100*(s.q3-s.q1)/math.Abs(s.median))
	}
	return out
}

// summarize returns the median and the quartiles as Python's
// statistics.quantiles(v, n=4) computes them, which is what the driver
// judges the benchmark's spread by.
func summarize(v []float64) summary {
	s := slices.Clone(v)
	sort.Float64s(s)
	q := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return summary{median: median(s), q1: q(1), q3: q(3)}
}
