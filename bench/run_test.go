package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/types"
)

// stubKV is a store that does nothing: a map of the last value written
// per key. Like the store it keeps a copy of what is written — its one
// allocation per write, counted in clones so the test can subtract it.
type stubKV struct {
	idx    map[string]int
	mu     []sync.Mutex
	vals   [][]byte
	ts     []types.TS
	clones atomic.Int64
}

func newStubKV(w workload) *stubKV {
	s := &stubKV{idx: map[string]int{}, mu: make([]sync.Mutex, w.keys), vals: make([][]byte, w.keys), ts: make([]types.TS, w.keys)}
	for i, n := range w.keyNames() {
		s.idx[n] = i
		s.vals[i] = make([]byte, w.valueBytes)
		encodeValue(s.vals[i], i, 0)
	}
	return s
}

func (s *stubKV) Read(_ context.Context, key string) (types.TSVal, error) {
	i := s.idx[key]
	s.mu[i].Lock()
	defer s.mu[i].Unlock()
	return types.TSVal{TS: s.ts[i], Val: s.vals[i]}, nil
}

func (s *stubKV) WriteTS(_ context.Context, key string, val types.Value) (types.TS, error) {
	i := s.idx[key]
	s.mu[i].Lock()
	defer s.mu[i].Unlock()
	s.vals[i] = slices.Clone(val)
	s.clones.Add(1)
	s.ts[i]++
	return s.ts[i], nil
}

// The harness must contribute under 1 % of allocs_per_op. The leanest
// workload allocates about 290 times per op, so the op loop over a
// store that allocates nothing has to stay under 2.9 — and in fact
// allocates a fixed handful per phase, whatever the op count.
func TestHarnessAllocatesNothingPerOp(t *testing.T) {
	w, _ := workloadByName("mem-mixed")
	const n = 200_000
	kv := newStubKV(w)
	r := newRunner(w, kv, nil)
	seq := w.generate(1, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := r.runPhase(seq)
	runtime.ReadMemStats(&after)
	if p.failed.Load() != 0 {
		t.Fatalf("%d ops failed against the stub: %v", p.failed.Load(), p.firstErr)
	}
	if got := p.completed(); got != n {
		t.Fatalf("completed %d ops, want %d", got, n)
	}
	harness := int64(after.Mallocs-before.Mallocs) - kv.clones.Load()
	perOp := float64(harness) / n
	t.Logf("harness: %.5f allocs/op (%d allocations over %d ops)", perOp, harness, n)
	if perOp > 0.01 {
		t.Errorf("harness allocates %.4f times per op, want < 0.01 (1 %% of allocs_per_op would be 2.9)", perOp)
	}
	read, write := p.merged()
	if read.Count()+write.Count() != n {
		t.Errorf("histograms hold %d samples, want %d", read.Count()+write.Count(), n)
	}
}

// The inline check must catch a store that loses writes.
func TestHarnessCountsViolations(t *testing.T) {
	w, _ := workloadByName("mem-mixed")
	kv := newStubKV(w)
	r := newRunner(w, lossyKV{kv}, nil)
	p := r.runPhase(w.generate(1, 20_000))
	if p.violated.Load() == 0 {
		t.Fatal("a store that drops every write passed the regularity check")
	}
	if p.failed.Load() != p.violated.Load() {
		t.Errorf("failed = %d, violated = %d: every failure here is a violation", p.failed.Load(), p.violated.Load())
	}
}

// lossyKV acknowledges writes without performing them.
type lossyKV struct{ *stubKV }

func (l lossyKV) WriteTS(context.Context, string, types.Value) (types.TS, error) { return 1, nil }

// bench.drift_pct compares the median window of the phase's two halves,
// leaves out the incomplete last window and the middle one of an odd
// count, ignores a burst in either half, and is absent when a half has
// fewer than three windows.
func TestDriftPct(t *testing.T) {
	phaseOf := func(elapsed time.Duration, counts ...int32) *phase {
		p := &phase{windows: make([]atomic.Int32, maxWindows), elapsed: elapsed}
		for i, c := range counts {
			p.windows[i].Store(c)
		}
		return p
	}
	for _, tc := range []struct {
		name string
		p    *phase
		want float64
		ok   bool
	}{
		{"steady", phaseOf(6500*time.Millisecond, 100, 100, 100, 100, 100, 100, 40), 0, true},
		{"slowing", phaseOf(7200*time.Millisecond, 100, 100, 100, 55, 90, 90, 90, 10), -10, true},
		{"burst", phaseOf(8*time.Second, 100, 20, 100, 100, 100, 100, 100, 300), 0, true},
		{"short", phaseOf(5900*time.Millisecond, 100, 100, 100, 100, 100, 100), 0, false},
	} {
		got, ok := tc.p.driftPct()
		if ok != tc.ok || math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("%s: driftPct() = %v, %v; want %v, %v", tc.name, got, ok, tc.want, tc.ok)
		}
	}
}

// TestQuickRun proves, without timing anything, that the benchmark
// builds, runs all four workloads untraced and traced, passes its
// correctness checks and emits every named metric.
func TestQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads")
	}
	c := runConfig{seed: 1, seconds: defaultSeconds, quick: true}
	for _, w := range workloads {
		for _, mode := range []struct {
			name string
			run  func(workload, runConfig) (*result, error)
			defs []metric
		}{{"untraced", runEndToEnd, endToEndMetrics}, {"traced", runTraced, perLayerMetrics}} {
			res, err := mode.run(w, c)
			if err != nil {
				t.Fatalf("%s %s: %v", w.name, mode.name, err)
			}
			if res.attempted == 0 || res.failed != 0 || res.violated != 0 {
				t.Errorf("%s %s: attempted %d, failed %d, violations %d: %v", w.name, mode.name, res.attempted, res.failed, res.violated, res.firstErr)
			}
			for _, d := range mode.defs {
				if _, ok := res.metrics[d.name]; !ok {
					t.Errorf("%s %s: metric %s not emitted", w.name, mode.name, d.name)
				}
			}
			if mode.name == "traced" {
				if u := res.metrics["trace.unattributed_pct"]; u > 10 {
					t.Errorf("%s: %.1f %% of traced latency unattributed", w.name, u)
				}
				if res.samples["cross-checked"] == 0 {
					t.Errorf("%s: no ops cross-checked by internal/consistency", w.name)
				}
				for _, kind := range []string{"read", "write"} {
					mean := res.metrics["store."+kind+".mean_us"]
					sum := res.metrics["store."+kind+".issue_us"] + res.metrics["net."+kind+".rtt_us"] + res.metrics["store."+kind+".decide_us"]
					if kind == "read" {
						sum += res.metrics["store.read.extra_round_us"]
					}
					if mean <= 0 || sum < 0.9*mean || sum > 1.1*mean {
						t.Errorf("%s: %s spans sum to %.1f us, mean latency %.1f us", w.name, kind, sum, mean)
					}
				}
			}
		}
	}
}

// BENCHMARK.json at the repository root declares the same workloads and
// metrics as this package.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		t.Fatal(err)
	}
	if decl.RunSeconds != defaultSeconds {
		t.Errorf("BENCHMARK.json has run_seconds %d, -seconds defaults to %d", decl.RunSeconds, defaultSeconds)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code has %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if decl.Workloads[i].Name != w.name || decl.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the code %q (%q)", i, decl.Workloads[i].Name, decl.Workloads[i].Why, w.name, w.why)
		}
	}
	compare := func(kind string, got []jsonMetric, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the code has %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s, %s], the code %s [%s, %s]", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match the code's %v", kind, d.name, d.bound)
			}
		}
	}
	compare("end_to_end", decl.EndToEnd, endToEndMetrics, true)
	compare("per_layer", decl.PerLayer, perLayerMetrics, false)
}
