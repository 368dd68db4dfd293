package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/types"
	"repro/store"
)

// kv is the part of the store's public API the op loop drives.
// *store.Store implements it; the harness-cost test substitutes a stub.
type kv interface {
	Read(ctx context.Context, key string) (types.TSVal, error)
	WriteTS(ctx context.Context, key string, val types.Value) (types.TS, error)
}

// opTimeout is the deadline every operation runs under.
const opTimeout = 5 * time.Second

// runner drives one opened store: it owns the per-key check state and
// hands operations to client goroutines.
type runner struct {
	w     workload
	kv    kv
	names []string
	keys  []keyState
	tr    *tracer // nil unless this is the traced run
}

func newRunner(w workload, kv kv, tr *tracer) *runner {
	return &runner{w: w, kv: kv, names: w.keyNames(), keys: make([]keyState, w.keys), tr: tr}
}

// client is one closed-loop caller. Its context is reused across ops —
// a per-op context.WithTimeout would be the harness's only allocation —
// and the phase watchdog cancels it when an op overruns opTimeout.
type client struct {
	mu      sync.Mutex // guards ctx/cancel against the watchdog
	ctx     context.Context
	cancel  context.CancelFunc
	opStart atomic.Int64 // phase-relative ns of the op in flight, 0 when idle
	val     []byte
}

func newClient(valueBytes int) *client {
	c := &client{val: make([]byte, valueBytes)}
	c.ctx, c.cancel = context.WithCancel(context.Background())
	return c
}

// context returns a live context for the next op, replacing one the
// watchdog cancelled.
func (c *client) context() context.Context {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctx.Err() != nil {
		c.ctx, c.cancel = context.WithCancel(context.Background())
	}
	return c.ctx
}

func (c *client) expire() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cancel()
}

// violation is a failed correctness check, as opposed to an operation
// that returned an error.
type violation struct{ err error }

func (v violation) Error() string { return v.err.Error() }

// write performs the next write to key and returns when it completed.
func (r *runner) write(ctx context.Context, val []byte, key int) error {
	k := &r.keys[key]
	k.wmu.Lock()
	defer k.wmu.Unlock()
	seq := k.beginWrite()
	encodeValue(val, key, seq)
	rec := r.tr.begin(key, false)
	ts, err := r.kv.WriteTS(ctx, r.names[key], val)
	r.tr.end(rec, int64(ts), seq, err)
	if err != nil {
		return err
	}
	k.endWrite(seq)
	return nil
}

// read performs one read of key and checks what it returned.
func (r *runner) read(ctx context.Context, key int) error {
	k := &r.keys[key]
	lo := k.beginRead()
	rec := r.tr.begin(key, true)
	tv, err := r.kv.Read(ctx, r.names[key])
	if err != nil {
		r.tr.end(rec, 0, 0, err)
		return err
	}
	seq, err := k.checkRead(key, lo, tv.Val, r.w.valueBytes)
	r.tr.end(rec, int64(tv.TS), seq, err)
	if err != nil {
		return violation{err}
	}
	return nil
}

// phase is one pass over an operation sequence by the client
// goroutines. Op indices come from one shared counter, so the clients
// finish together whatever their individual speeds.
type phase struct {
	ops   []op
	start time.Time

	next      atomic.Int64
	attempted atomic.Int64
	failed    atomic.Int64
	violated  atomic.Int64
	errMu     sync.Mutex
	firstErr  error

	hists   [clients][2]*hist // [client][0 read, 1 write]
	windows []atomic.Int32    // ops completed per second of the phase
	elapsed time.Duration
}

const maxWindows = 1024

func (p *phase) fail(err error) {
	p.failed.Add(1)
	if errors.As(err, new(violation)) {
		p.violated.Add(1)
	}
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
}

// runPhase executes ops with the closed loop of client goroutines and
// returns the phase's measurements.
func (r *runner) runPhase(ops []op) *phase {
	p := &phase{ops: ops, windows: make([]atomic.Int32, maxWindows)}
	cs := make([]*client, clients)
	for i := range cs {
		cs[i] = newClient(r.w.valueBytes)
		p.hists[i] = [2]*hist{new(hist), new(hist)}
	}
	stopWatch := make(chan struct{})
	var watch sync.WaitGroup
	watch.Add(1)
	p.start = time.Now()
	go func() {
		defer watch.Done()
		tick := time.NewTicker(opTimeout / 20)
		defer tick.Stop()
		for {
			select {
			case <-stopWatch:
				return
			case <-tick.C:
				now := int64(time.Since(p.start))
				for _, c := range cs {
					if s := c.opStart.Load(); s != 0 && now-s > int64(opTimeout) {
						c.expire()
					}
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for i := range cs {
		wg.Add(1)
		go func(c *client, h [2]*hist) {
			defer wg.Done()
			r.clientLoop(c, p, h)
		}(cs[i], p.hists[i])
	}
	wg.Wait()
	p.elapsed = time.Since(p.start)
	close(stopWatch)
	watch.Wait()
	for _, c := range cs {
		c.expire()
	}
	return p
}

func (r *runner) clientLoop(c *client, p *phase, h [2]*hist) {
	n := int64(len(p.ops))
	for {
		i := p.next.Add(1) - 1
		if i >= n {
			return
		}
		t0 := int64(time.Since(p.start)) + 1 // never 0: 0 means idle
		p.attempted.Add(1)
		c.opStart.Store(t0)
		o := p.ops[i]
		var err error
		kind := 1
		if o.read() {
			kind = 0
			err = r.read(c.context(), o.key())
		} else {
			err = r.write(c.context(), c.val, o.key())
		}
		t1 := int64(time.Since(p.start))
		c.opStart.Store(0)
		if err != nil {
			p.fail(err)
			continue
		}
		h[kind].Record(t1 - t0)
		if w := t1 / int64(time.Second); w < maxWindows {
			p.windows[w].Add(1)
		}
	}
}

// merged returns the read and write histograms over all clients.
func (p *phase) merged() (read, write *hist) {
	read, write = new(hist), new(hist)
	for _, h := range p.hists {
		read.Merge(h[0])
		write.Merge(h[1])
	}
	return read, write
}

// completed is the number of ops that returned without error.
func (p *phase) completed() int64 { return p.attempted.Load() - p.failed.Load() }

// fullWindows returns the ops completed in each complete one-second
// window of the phase.
func (p *phase) fullWindows() []float64 {
	counts := make([]float64, min(int(p.elapsed/time.Second), maxWindows))
	for i := range counts {
		counts[i] = float64(p.windows[i].Load())
	}
	return counts
}

// opsPerSec is the median over the phase's complete one-second windows
// of the ops completed in the window — robust to a neighbour's burst —
// or the plain mean rate when the phase is too short to have three.
func (p *phase) opsPerSec() float64 {
	counts := p.fullWindows()
	if len(counts) < 3 {
		return float64(p.completed()) / p.elapsed.Seconds()
	}
	return median(counts)
}

// driftPct is the stationarity alarm: ops_per_s (the median window)
// over the second half of the phase's complete windows against the
// first half. A phase too short to have three windows in either half
// has no drift to report.
func (p *phase) driftPct() (pct float64, ok bool) {
	counts := p.fullWindows()
	half := len(counts) / 2
	if half < 3 {
		return 0, false
	}
	first, second := median(counts[:half]), median(counts[len(counts)-half:])
	return 100 * (second - first) / first, true
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// open opens w's store and preloads it: every key written once and
// read once per reader slot, so every lazily built per-key writer and
// per-slot reader exists before anything is timed. One goroutine per
// shard walks that shard's keys in order — sequential reads of a shard
// rotate through its slot pool, which is what guarantees each slot saw
// each key.
func open(w workload, seed int64, telemetry bool, tr *tracer) (*store.Store, *runner, error) {
	s, err := store.Open(w.options(seed, telemetry))
	if err != nil {
		return nil, nil, fmt.Errorf("open %s: %w", w.name, err)
	}
	r := newRunner(w, s, tr)
	if tr != nil {
		s.AddTap(tr)
	}
	byShard := make([][]int, s.NumShards())
	for k, name := range r.names {
		sh := s.ShardFor(name)
		byShard[sh] = append(byShard[sh], k)
	}
	errs := make([]error, len(byShard))
	var wg sync.WaitGroup
	for sh, keys := range byShard {
		wg.Add(1)
		go func(sh int, keys []int) {
			defer wg.Done()
			val := make([]byte, w.valueBytes)
			for _, k := range keys {
				if errs[sh] = r.preloadKey(val, k); errs[sh] != nil {
					return
				}
			}
		}(sh, keys)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			s.Close()
			return nil, nil, fmt.Errorf("preload %s: %w", w.name, err)
		}
	}
	return s, r, nil
}

// preloadKey writes key once and reads it once per reader slot.
func (r *runner) preloadKey(val []byte, key int) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout*(1+readersPerShard))
	defer cancel()
	if err := r.write(ctx, val, key); err != nil {
		return err
	}
	for j := 0; j < readersPerShard; j++ {
		if err := r.read(ctx, key); err != nil {
			return err
		}
	}
	return nil
}

// processCPU is the user+system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// snapshot is the process- and store-level counters read before and
// after the measured phase.
type snapshot struct {
	mallocs, allocBytes uint64
	cpu                 time.Duration
	m                   store.Metrics
	faults              store.FaultStats
}

func takeSnapshot(s *store.Store) snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return snapshot{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, cpu: processCPU(), m: s.Metrics(), faults: s.FaultStats()}
}

// liveHeapMiB is HeapAlloc after two forced collections: the state the
// open store retains (histories, per-key clients), not an instantaneous
// sample of garbage.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// measured is one measured phase with the counters around it and its
// latency histograms merged over the clients.
type measured struct {
	p             *phase
	read, write   *hist
	before, after snapshot
}

// measure warms the store up with the first warm ops of the sequence
// (discarded), then runs and measures the rest.
func (r *runner) measure(s *store.Store, seq []op, warm int) (measured, error) {
	if wp := r.runPhase(seq[:warm]); wp.failed.Load() > 0 {
		return measured{}, fmt.Errorf("%s warm-up: %d ops failed, first: %w", r.w.name, wp.failed.Load(), wp.firstErr)
	}
	runtime.GC()
	r.tr.startMeasuring()
	m := measured{before: takeSnapshot(s)}
	m.p = r.runPhase(seq[warm:])
	m.after = takeSnapshot(s)
	r.tr.stopMeasuring()
	m.read, m.write = m.p.merged()
	return m, nil
}

// endToEnd computes the end-to-end metrics of a measured phase
// (setup_s and live_heap_mb are added by the caller).
func (m measured) endToEnd() map[string]float64 {
	p := m.p
	ops := float64(p.completed())
	read, write := m.read, m.write
	dm := m.after.m
	reads := float64(dm.Reads - m.before.m.Reads)
	out := map[string]float64{
		"ops_per_s":       p.opsPerSec(),
		"read_p50_ms":     read.Quantile(0.50) / 1e6,
		"read_p95_ms":     read.Quantile(0.95) / 1e6,
		"write_p50_ms":    write.Quantile(0.50) / 1e6,
		"write_p95_ms":    write.Quantile(0.95) / 1e6,
		"rounds_per_read": float64(dm.ReadRounds-m.before.m.ReadRounds) / reads,
		"allocs_per_op":   float64(m.after.mallocs-m.before.mallocs) / ops,
		"alloc_kb_per_op": float64(m.after.allocBytes-m.before.allocBytes) / 1024 / ops,
		// Reported with every run, gated in none (see README).
		"proc.cpu_us_per_op": float64(m.after.cpu-m.before.cpu) / 1e3 / ops,
		"store.read.p99_ms":  read.Quantile(0.99) / 1e6,
		"store.write.p99_ms": write.Quantile(0.99) / 1e6,
	}
	return out
}
