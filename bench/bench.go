package main

import (
	"fmt"
	"runtime"
	"time"
)

// runConfig is what one run of one workload is parameterised by.
type runConfig struct {
	seed    int64
	seconds int
	quick   bool
}

// defaultSeconds is BENCHMARK.json's run_seconds, which the driver
// passes as --seconds on every run of every commit.
const defaultSeconds = 20

// measuredOps is the op count of the measured phase: fixed work, so two
// commits run with the same -seconds walk the same state trajectory and
// their counts compare exactly. -quick runs a twentieth of it.
func (c runConfig) measuredOps(w workload) int {
	n := w.opsPerSec * c.seconds
	if c.quick {
		n /= 20
	}
	return max(n, 100)
}

// warmOpsPerKey is the least the untraced run warms up by. After the
// preload every history holds one version; under load it grows until
// the reader slot that visits a key least often has caught up (about 22
// versions per key on the 50/50 workloads), and the live heap, and with
// it the collector's share of every op, grows along. On tcp-mixed (1 KiB
// values) a tenth of the ops as warm-up left the heap at 110 of its
// final 183 MiB and the first half of the measured phase 2-4 % faster
// than the second; after 25 ops per key the heap is within 3 % of its
// final size.
const warmOpsPerKey = 25

// warmOps is the length of the untraced run's warm-up (discarded): a
// tenth of the measured op count and at least warmOpsPerKey per key.
func (c runConfig) warmOps(w workload) int {
	perKey := warmOpsPerKey * w.keys
	if c.quick {
		perKey /= 20
	}
	return max(c.measuredOps(w)/10, perKey)
}

// result is what one run reports.
type result struct {
	workload  string
	attempted int64
	failed    int64
	violated  int64
	firstErr  error
	metrics   map[string]float64
	samples   map[string]uint64 // sample counts behind the latency quantiles
}

func (r *result) absorb(p *phase) {
	r.attempted += p.attempted.Load()
	r.failed += p.failed.Load()
	r.violated += p.violated.Load()
	if r.firstErr == nil {
		r.firstErr = p.firstErr
	}
}

// setupCycles is how many open+preload cycles a run times; setup_s is
// their median. They run after the measured phase, when the machine has
// been busy for as long as the run lasted: set-up timed at the start of
// the process depends on what the machine did before (0.25 s after a
// busy spell, 0.44 falling to 0.25 over five cycles after an idle one).
const setupCycles = 5

// runEndToEnd is the untraced run: it measures every end-to-end metric
// of w.
func runEndToEnd(w workload, c runConfig) (*result, error) {
	n, warm := c.measuredOps(w), c.warmOps(w)
	seq := w.generate(c.seed, warm+n)

	s, r, err := open(w, c.seed, false, nil)
	if err != nil {
		return nil, err
	}
	m, err := r.measure(s, seq, warm)
	if err != nil {
		s.Close()
		return nil, err
	}
	res := &result{workload: w.name, metrics: m.endToEnd(), samples: map[string]uint64{}}
	res.absorb(m.p)
	res.samples["read"], res.samples["write"] = m.read.Count(), m.write.Count()
	res.metrics["live_heap_mb"] = liveHeapMiB()
	if d, ok := m.p.driftPct(); ok {
		res.metrics["bench.drift_pct"] = d
	}
	res.metrics["bench.measured_s"] = m.p.elapsed.Seconds()

	var setups []float64
	for i := 0; i < setupCycles; i++ {
		if err := s.Close(); err != nil {
			return nil, fmt.Errorf("close %s: %w", w.name, err)
		}
		runtime.GC()
		start := time.Now()
		if s, _, err = open(w, c.seed, false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.metrics["setup_s"] = median(setups)
	if err := s.Close(); err != nil {
		return nil, fmt.Errorf("close %s: %w", w.name, err)
	}
	return res, nil
}
