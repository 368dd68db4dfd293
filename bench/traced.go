package main

import (
	"fmt"
	"runtime"

	"repro/store"
)

// crossCheckOps is the size of the traced run's sample handed to
// internal/consistency.CheckRegularity.
const crossCheckOps = 5000

// shortRun opens a store, warms it up, measures seq and closes it.
func shortRun(w workload, c runConfig, seq []op, warm int, telemetry bool, tr *tracer) (measured, error) {
	s, r, err := open(w, c.seed, telemetry, tr)
	if err != nil {
		return measured{}, err
	}
	m, err := r.measure(s, seq, warm)
	if cerr := s.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("close %s: %w", w.name, cerr)
	}
	runtime.GC()
	return m, err
}

// runTraced is the traced run: it measures every per-layer metric of w.
// It replays the first third of the untraced run's operations three
// times on fresh stores — untraced (the reference the overheads and
// the budget are taken against), with the tap installed, and with
// Options.Telemetry set — then replays the captured messages through
// each layer alone.
func runTraced(w workload, c runConfig) (*result, error) {
	n := max(c.measuredOps(w)/3, 100)
	warm := n / 10
	seq := w.generate(c.seed, warm+n)
	res := &result{workload: w.name, metrics: map[string]float64{}, samples: map[string]uint64{}}

	ref, err := shortRun(w, c, seq, warm, false, nil)
	if err != nil {
		return nil, err
	}
	res.absorb(ref.p)
	refE2E := ref.endToEnd()

	tr := newTracer(w, w.keyNames(), w.keys*(1+readersPerShard)+len(seq))
	traced, err := shortRun(w, c, seq, warm, false, tr)
	if err != nil {
		return nil, err
	}
	res.absorb(traced.p)
	checked, err := tr.crossCheck(crossCheckOps)
	if err != nil {
		res.violated++
		res.failed++
		if res.firstErr == nil {
			res.firstErr = violation{fmt.Errorf("consistency.CheckRegularity on the traced run: %w", err)}
		}
	}
	res.samples["cross-checked"] = uint64(checked)

	tel, err := shortRun(w, c, seq, warm, true, nil)
	if err != nil {
		return nil, err
	}
	res.absorb(tel.p)

	m := res.metrics
	ops := float64(traced.p.completed())
	a, b := traced.after.m, traced.before.m
	dm := store.Metrics{Writes: a.Writes - b.Writes, WriteRounds: a.WriteRounds - b.WriteRounds,
		Reads: a.Reads - b.Reads, ReadRounds: a.ReadRounds - b.ReadRounds, FastReads: a.FastReads - b.FastReads}
	reads, writes := float64(dm.Reads), float64(dm.Writes)
	ct := &tr.counts

	// Boundary counts.
	m["net.msgs_per_op"] = float64(ct.frames.Load()) / ops
	m["net.req_msgs_per_read"] = float64(ct.readReqs.Load()) / reads
	m["net.req_msgs_per_write"] = float64(ct.writeReqs.Load()) / writes
	m["net.wire_bytes_per_op"] = float64(ct.wireBytes.Load()) / ops
	m["net.reply_bytes_per_read"] = float64(ct.readReplyBytes.Load()) / reads
	m["core.fast_read_pct"] = dm.FastReadPct()
	m["core.rounds_per_write"] = dm.RoundsPerWrite()
	m["batch.ops_per_frame"] = float64(ct.regOps.Load()) / float64(ct.frames.Load())
	m["fault.drops_per_kop"] = 1e3 * float64(traced.after.faults.Dropped-traced.before.faults.Dropped) / ops
	m["fault.delayed_per_kop"] = 1e3 * float64(traced.after.faults.Delayed-traced.before.faults.Delayed) / ops

	// Spans.
	rs, ws, unattributed := tr.spanReport()
	res.samples["read spans"], res.samples["write spans"] = uint64(rs.n), uint64(ws.n)
	m["store.read.mean_us"], m["store.write.mean_us"] = rs.mean, ws.mean
	m["store.read.issue_us"], m["store.write.issue_us"] = rs.issue, ws.issue
	m["net.read.rtt_us"], m["net.write.rtt_us"] = rs.rtt, ws.rtt
	m["store.read.decide_us"], m["store.write.decide_us"] = rs.decide, ws.decide
	m["store.read.extra_round_us"] = rs.extraRound
	m["trace.unattributed_pct"] = unattributed

	// Overheads.
	m["bench.trace_overhead_pct"] = 100 * (refE2E["ops_per_s"] - traced.p.opsPerSec()) / refE2E["ops_per_s"]
	m["obs.telemetry_on_ops_ratio"] = tel.p.opsPerSec() / refE2E["ops_per_s"]
	for _, k := range []string{"proc.cpu_us_per_op", "store.read.p99_ms", "store.write.p99_ms"} {
		m[k] = refE2E[k]
	}

	// Layer self-cost and budget.
	calls := layerCalls
	if c.quick {
		calls /= 20
	}
	layers, err := measureLayers(tr, layerInputs{
		cpuUsPerOp:  refE2E["proc.cpu_us_per_op"],
		readShare:   reads / (reads + writes),
		framesPerOp: m["net.msgs_per_op"],
		reqFrames:   float64(ct.reqFrames.Load()) / ops,
		readReqs:    float64(ct.readReqs.Load()) / ops,
		writeReqs:   float64(ct.writeReqs.Load()) / ops,
		readMeanUs:  ref.read.Mean() / 1e3,
		writeMeanUs: ref.write.Mean() / 1e3,
		batching:    w.batching,
		tcp:         w.tcp,
		valueBytes:  w.valueBytes,
	}, calls)
	if err != nil {
		return nil, err
	}
	for k, v := range layers {
		m[k] = v
	}
	return res, nil
}
