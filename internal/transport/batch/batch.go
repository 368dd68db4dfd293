// Package batch implements the batched transport hot path: a client-side
// endpoint wrapper that coalesces concurrent in-flight messages to the
// same base object into a single wire.Batch frame, and a server-side
// handler wrapper that unpacks such frames, applies each op atomically in
// order, and returns the produced acknowledgements as one Batch reply.
//
// The per-message cost of the protocols — a network frame, an encoder
// run, a syscall on TCP — is independent of how many registers a client
// serves, so when many register clients share one physical endpoint
// (internal/store), coalescing amortizes that cost across every op that
// happens to be in flight to the same object. Two knobs bound the
// trade-off: MaxBatch caps the ops per frame (a full batch flushes
// immediately), and FlushWindow caps how long a lone op waits for
// companions before it is sent anyway.
//
// Coalescing is adaptive per destination: a link starts in pass-through
// (ops ship immediately, zero added latency, no timers) and only
// switches to coalescing once sends demonstrably contend — ActivationOps
// sends within RateWindow each observing another send to the same
// destination already in flight. Contention is the honest signal that
// batching will amortize anything: on a cheap transport sends complete
// before they can collide and the link stays pass-through, while slow
// frame writes under concurrent load collide constantly and activate
// coalescing within a handful of ops. A destination whose flush window
// later elapses with no companions reverts to pass-through. Setting
// ActivationOps to AlwaysCoalesce restores unconditional coalescing
// (the saturation soaks pin it so budget-pushback mechanics stay
// exercised).
//
// Both memnet and tcpnet integrate this package behind their
// EnableBatching switch; protocol code is unaware of batching and runs
// unchanged.
package batch

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/flow"
	"repro/internal/wire"
)

// DefaultFlushWindow bounds the extra latency a lone op pays waiting for
// batch companions.
const DefaultFlushWindow = 200 * time.Microsecond

// DefaultMaxBatch caps the ops coalesced into one frame.
const DefaultMaxBatch = 64

// DefaultActivationOps is the number of contended sends within
// RateWindow that switch a destination into coalescing mode. The
// threshold is deliberately high: a contended send costs only what the
// colliding frame costs, so a few incidental collisions on a cheap
// transport (memnet sends complete in microseconds but dozens of
// concurrent writers still overlap occasionally) must not push a link
// into paying the flush window on every round-trip. Only sustained
// collision density — the signature of per-frame cost worth amortizing
// — should activate. At 3 the sharded memnet bench activated off burst
// noise and ran slower batched than unbatched; at 12 memnet stays
// pass-through while tcpnet, whose syscall-bound sends collide on
// nearly every concurrent op, still activates within two rounds.
const DefaultActivationOps = 12

// DefaultRateWindow bounds how recent contended sends must be to count
// toward activation.
const DefaultRateWindow = time.Millisecond

// DefaultSendCostFloor is the minimum duration a CONTENDED pass-through
// send must take for the collision to count toward activation. An
// in-memory transport completes even a contended send in a microsecond
// or two — a queue append under a mutex — so its collisions never clear
// the floor and the link stays pass-through no matter how many writers
// overlap. A socket transport's contended send waits behind another
// frame's encode and write syscall, which clears the floor easily.
// This is what makes the adaptive layer transport-agnostic without
// being told which transport it wraps: it measures amortizable cost
// instead of assuming it.
const DefaultSendCostFloor = 20 * time.Microsecond

// AlwaysCoalesce, as Options.ActivationOps, disables the adaptive
// pass-through mode: every op coalesces, as in the pre-adaptive layer.
const AlwaysCoalesce = -1

// Options are the batching knobs.
type Options struct {
	// FlushWindow is the maximum time an op waits for companions before
	// its batch is flushed regardless of size. Zero selects the default.
	FlushWindow time.Duration
	// MaxBatch flushes a destination's batch as soon as it reaches this
	// many ops. Zero selects the default.
	MaxBatch int
	// PendingBudget caps the TOTAL ops coalescing (accepted but not yet
	// shipped) across all destinations of one endpoint: coalesce-or-
	// pushback. An op that would exceed it is refused with a synthetic
	// wire.Busy notice delivered locally to Recv, exactly as if the
	// destination itself had pushed back — the client's slow-object
	// handling deals with both identically. 0 = unbounded (the
	// pre-flow-control behaviour).
	PendingBudget int
	// ActivationOps switches a destination from pass-through to
	// coalescing after this many contended sends (a send observing
	// another send to the same destination already in flight) within
	// RateWindow. Zero selects the default; AlwaysCoalesce (-1) disables
	// adaptivity and coalesces unconditionally.
	ActivationOps int
	// RateWindow bounds how recent contended sends must be to count
	// toward ActivationOps. Zero selects the default.
	RateWindow time.Duration
	// SendCostFloor is the minimum duration a contended pass-through
	// send must take for its collision to count toward ActivationOps.
	// Zero selects the default; negative counts every contended send
	// regardless of cost (the pre-floor behaviour, used by tests that
	// drive activation on an in-memory transport).
	SendCostFloor time.Duration
	// Counters, when non-nil, receives the pushback counts and pending
	// high watermarks (see internal/transport/flow).
	Counters *flow.Counters
	// Trace, when non-nil, receives a batch-coalesce event as each
	// traced op joins a destination queue, a batch-flush event as its
	// frame ships, and a busy-emit event when the pending budget refuses
	// it — all attributed to TraceShard and the destination's member
	// index by the op ID the request envelope carries (wire.RegOp.Op).
	Trace *obs.Tracer
	// TraceShard stamps the shard field of emitted trace events.
	TraceShard int
}

// withDefaults fills zero knobs.
func (o Options) withDefaults() Options {
	if o.FlushWindow <= 0 {
		o.FlushWindow = DefaultFlushWindow
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = DefaultMaxBatch
	}
	if o.ActivationOps == 0 {
		o.ActivationOps = DefaultActivationOps
	}
	if o.RateWindow <= 0 {
		o.RateWindow = DefaultRateWindow
	}
	if o.SendCostFloor == 0 {
		o.SendCostFloor = DefaultSendCostFloor
	}
	return o
}

// Conn wraps a transport endpoint with send-side coalescing and
// receive-side unpacking. Messages to base objects are held for at most
// FlushWindow and shipped together as one wire.Batch; replies arriving as
// a Batch are delivered to Recv one op at a time. Traffic to non-object
// nodes passes through unbatched. Safe for concurrent use.
type Conn struct {
	inner transport.Conn
	opts  Options

	mu      sync.Mutex
	pend    map[transport.NodeID]*destQueue
	pending int // total unshipped ops across destinations
	closed  bool

	rmu        sync.Mutex
	rqueue     []transport.Message
	rwait      chan struct{}      // broadcast: rqueue grew or the inner reader slot freed
	rwaiters   int                // receivers parked on rwait; zero skips the broadcast churn
	reading    bool               // a receiver is inside inner.Recv (single-flight)
	readCancel context.CancelFunc // nudges the parked single-flight reader (pushLocal)
}

// destQueue accumulates the in-flight ops for one destination. Its ops
// backing array is retained across flushes (takeLocked copies the batch
// out exact-size), so steady-state coalescing allocates one slice per
// shipped frame instead of re-growing the accumulator op by op.
type destQueue struct {
	ops   []wire.Msg
	gen   int         // flush generation, guards stale timers
	timer *time.Timer // pending flush timer, stopped when the batch is taken

	coalescing  bool         // adaptive mode: false = pass-through
	sending     atomic.Int32 // pass-through sends currently inside inner.Send
	hits        int          // contended sends observed in the current window
	windowStart time.Time    // start of the contention-counting window
	loneFlushes int          // consecutive timer flushes that shipped a lone op
}

// NewConn wraps inner with batching per opts.
func NewConn(inner transport.Conn, opts Options) *Conn {
	return &Conn{
		inner: inner,
		opts:  opts.withDefaults(),
		pend:  make(map[transport.NodeID]*destQueue),
		rwait: make(chan struct{}),
	}
}

var _ transport.Conn = (*Conn)(nil)

// ID returns the wrapped endpoint's node.
func (c *Conn) ID() transport.NodeID { return c.inner.ID() }

// Send enqueues payload for coalescing when to is a base object, passing
// other traffic straight through. A destination below its activation
// threshold ships the op immediately (pass-through); a coalescing
// destination holds it until the batch fills (MaxBatch) or the flush
// window elapses, whichever comes first.
func (c *Conn) Send(to transport.NodeID, payload wire.Msg) {
	if to.Kind != transport.KindObject {
		c.inner.Send(to, payload)
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		// The model treats sends after close as forever in transit.
		return
	}
	q := c.pend[to]
	if q == nil {
		q = &destQueue{}
		c.pend[to] = q
	}
	if c.opts.ActivationOps != AlwaysCoalesce && !q.coalescing {
		// Pass-through: ship now, and probe for amortizable cost. A
		// collision alone (another send to this destination already in
		// flight) is NOT the signal — on a cheap transport dozens of
		// concurrent writers overlap constantly while each send is still
		// a microsecond queue append, and coalescing there buys flush-
		// window latency for nothing. The signal is a collision whose
		// send was also SLOW: waiting behind another frame's encode and
		// syscall is exactly the per-frame cost a shared frame removes,
		// so the send is timed (only when contended — the uncontended
		// path never reads the clock) and counts toward activation only
		// past SendCostFloor.
		collided := q.sending.Add(1) > 1
		c.mu.Unlock()
		c.opts.Counters.AddPassThrough()
		var start time.Time
		if collided {
			start = time.Now()
		}
		c.inner.Send(to, payload)
		q.sending.Add(-1)
		if collided && time.Since(start) >= c.opts.SendCostFloor {
			c.mu.Lock()
			if !c.closed && !q.coalescing {
				c.noteContentionLocked(q)
			}
			c.mu.Unlock()
		}
		return
	}
	if c.opts.PendingBudget > 0 && c.pending >= c.opts.PendingBudget {
		// Coalesce-or-pushback: the endpoint's pending budget is
		// exhausted, so the op is refused with a synthetic Busy from its
		// destination instead of growing the queue — indistinguishable,
		// to the client above, from the object itself pushing back.
		c.mu.Unlock()
		c.opts.Counters.AddBatchPushback()
		if c.opts.Trace != nil {
			c.traceEmit(obs.EvBusyEmit, to, "pending-budget", payload)
		}
		c.pushLocal(transport.Message{From: to, Payload: wire.BusyFor(payload)})
		return
	}
	q.ops = append(q.ops, payload)
	c.pending++
	c.opts.Counters.AddCoalesced()
	c.opts.Counters.RecordBatch(c.pending)
	if c.opts.Trace != nil {
		c.traceEmit(obs.EvCoalesce, to, fmt.Sprintf("pending=%d", c.pending), payload)
	}
	if len(q.ops) >= c.opts.MaxBatch {
		single, multi := c.takeLocked(q)
		c.mu.Unlock()
		c.ship(to, single, multi)
		return
	}
	if len(q.ops) == 1 {
		gen := q.gen
		q.timer = time.AfterFunc(c.opts.FlushWindow, func() { c.flushDest(to, gen) })
	}
	c.mu.Unlock()
}

// noteContentionLocked counts one contended send and activates
// coalescing once ActivationOps of them land within RateWindow.
func (c *Conn) noteContentionLocked(q *destQueue) {
	now := time.Now()
	if now.Sub(q.windowStart) > c.opts.RateWindow {
		q.hits = 0
		q.windowStart = now
	}
	q.hits++
	if q.hits >= c.opts.ActivationOps {
		q.coalescing = true
		q.hits = 0
	}
}

// takeLocked empties q, bumps its generation so pending timers for the
// taken ops become no-ops, and stops the flush timer (a timer that
// already fired is neutralized by the generation bump). A lone op is
// returned bare; a real batch is copied out exact-size so the
// accumulator backing can be reused for the next batch (the shipped
// slice escapes into wire.Batch and may be retained by the transport).
func (c *Conn) takeLocked(q *destQueue) (single wire.Msg, multi []wire.Msg) {
	switch n := len(q.ops); n {
	case 0:
	case 1:
		single = q.ops[0]
	default:
		multi = make([]wire.Msg, n)
		copy(multi, q.ops)
		if n > smallBatchOps {
			q.loneFlushes = 0 // a real batch shipped: coalescing is paying
		}
	}
	clear(q.ops) // drop op references so the backing array pins nothing
	c.pending -= len(q.ops)
	q.ops = q.ops[:0]
	q.gen++
	if q.timer != nil {
		q.timer.Stop()
		q.timer = nil
	}
	return single, multi
}

// pushLocal delivers a locally synthesized message (the pushback path)
// to Recv: it wakes every queued receiver AND interrupts a receiver
// parked inside the single-flight inner read — without the nudge, a
// lone receiver blocked on an idle socket would not observe the locally
// queued pushback until unrelated traffic arrived.
func (c *Conn) pushLocal(m transport.Message) {
	c.rmu.Lock()
	c.rqueue = append(c.rqueue, m)
	c.wakeLocked()
	cancel := c.readCancel
	c.rmu.Unlock()
	if cancel != nil {
		cancel()
	}
}

// wakeLocked wakes every parked receiver. With no one parked (the
// common single-receiver case) it is a no-op, skipping the per-message
// channel allocation and broadcast.
func (c *Conn) wakeLocked() {
	if c.rwaiters == 0 {
		return
	}
	close(c.rwait)
	c.rwait = make(chan struct{})
	c.rwaiters = 0
}

// deactivationFlushes is the hysteresis on reverting to pass-through:
// this many CONSECUTIVE flush windows each elapsing with at most
// smallBatchOps ops. A single lone window is common in a bursty
// round-trip workload (the timer occasionally catches the stragglers
// of a burst); reverting on one would thrash the mode and pay
// pass-through frames under real load.
const deactivationFlushes = 3

// smallBatchOps is the largest window-expired batch that still counts
// toward deactivation. A window that gathers only two or three
// companions amortizes a frame or two while charging every op the full
// flush-window latency — on a cheap transport that trade loses, and a
// link stuck gathering such batches round after round (the 64-writer
// memnet bench) should revert to pass-through just like one gathering
// none. Size-triggered flushes never count: a full batch shipped
// before the window elapsed, which is coalescing at its best.
const smallBatchOps = 3

// flushDest ships the pending batch for one destination if the flush
// generation still matches (i.e. no size-triggered flush beat the
// timer). Windows that repeatedly elapse with few or no companions
// mean coalescing is buying latency without amortizing much, so after
// deactivationFlushes consecutive small windows the destination
// reverts to pass-through until sends contend again.
func (c *Conn) flushDest(to transport.NodeID, gen int) {
	c.mu.Lock()
	q := c.pend[to]
	if q == nil || q.gen != gen || len(q.ops) == 0 {
		c.mu.Unlock()
		return
	}
	small := len(q.ops) <= smallBatchOps
	single, multi := c.takeLocked(q)
	if c.opts.ActivationOps != AlwaysCoalesce {
		if small {
			q.loneFlushes++
			if q.loneFlushes >= deactivationFlushes {
				q.coalescing = false
				q.hits = 0
				q.loneFlushes = 0
			}
		}
	}
	c.mu.Unlock()
	c.ship(to, single, multi)
}

// traceEmit records one event of the given kind per traced op inside
// msgs (op IDs extracted by wire.OpIDs).
// Callers guard on c.opts.Trace != nil so the untraced hot path pays
// neither the variadic slice nor the detail formatting.
func (c *Conn) traceEmit(kind obs.EventKind, to transport.NodeID, detail string, msgs ...wire.Msg) {
	var ids []uint64
	for _, m := range msgs {
		ids = wire.OpIDs(m, ids)
	}
	for _, op := range ids {
		c.opts.Trace.Record(obs.Event{Op: op, Kind: kind, Shard: c.opts.TraceShard, Member: to.Index, Detail: detail})
	}
}

// ship sends the coalesced ops as one frame; a lone op travels bare so
// uncontended traffic pays no envelope cost.
func (c *Conn) ship(to transport.NodeID, single wire.Msg, multi []wire.Msg) {
	if multi != nil {
		if c.opts.Trace != nil {
			c.traceEmit(obs.EvFlush, to, fmt.Sprintf("ops=%d", len(multi)), multi...)
		}
		c.inner.Send(to, wire.Batch{Ops: multi})
		return
	}
	if single != nil {
		if c.opts.Trace != nil {
			c.traceEmit(obs.EvFlush, to, "ops=1", single)
		}
		c.inner.Send(to, single)
	}
}

// Flush ships every pending batch immediately.
func (c *Conn) Flush() {
	c.mu.Lock()
	type out struct {
		to     transport.NodeID
		single wire.Msg
		multi  []wire.Msg
	}
	var pending []out
	for to, q := range c.pend {
		if len(q.ops) > 0 {
			single, multi := c.takeLocked(q)
			pending = append(pending, out{to, single, multi})
		}
	}
	c.mu.Unlock()
	for _, p := range pending {
		c.ship(p.to, p.single, p.multi)
	}
}

// Recv returns the next delivered message, unpacking Batch replies into
// their constituent ops (delivered in batch order).
//
// The inner read is single-flighted: at most one receiver blocks in
// inner.Recv while the others wait on a broadcast channel that fires
// whenever the queue grows or the reader slot frees. Without this,
// a receiver parked inside inner.Recv never observes ops a concurrent
// receiver unpacked into rqueue, so batched replies can stall behind an
// idle socket until unrelated traffic arrives.
func (c *Conn) Recv(ctx context.Context) (transport.Message, error) {
	for {
		c.rmu.Lock()
		if len(c.rqueue) > 0 {
			m := c.popLocked()
			c.rmu.Unlock()
			return m, nil
		}
		if !c.reading {
			c.reading = true
			// With a pending budget, the inner read runs under a nested
			// context so pushLocal can interrupt it when a synthetic
			// pushback lands in rqueue. Without one, pushLocal is
			// unreachable and the hot path skips the context allocation.
			readCtx := ctx
			var cancel context.CancelFunc
			if c.opts.PendingBudget > 0 {
				readCtx, cancel = context.WithCancel(ctx)
				c.readCancel = cancel
			}
			c.rmu.Unlock()
			m, err := c.inner.Recv(readCtx)
			c.rmu.Lock()
			c.reading = false
			c.readCancel = nil
			// Wake every queued receiver: either the queue is about to
			// grow, or the reader slot just freed (including on error, so
			// a waiter with a live context can take over the read).
			c.wakeLocked()
			if err != nil {
				nudged := readCtx.Err() != nil && ctx.Err() == nil
				c.rmu.Unlock()
				if cancel != nil {
					cancel()
				}
				if nudged {
					continue // pushLocal interrupted the read: re-check rqueue
				}
				return transport.Message{}, err
			}
			if cancel != nil {
				cancel()
			}
			b, ok := m.Payload.(wire.Batch)
			if !ok {
				c.rmu.Unlock()
				return m, nil
			}
			for _, op := range b.Ops {
				c.rqueue = append(c.rqueue, transport.Message{From: m.From, Payload: op})
			}
			c.rmu.Unlock()
			continue
		}
		c.rwaiters++
		wait := c.rwait
		c.rmu.Unlock()
		select {
		case <-wait:
		case <-ctx.Done():
			return transport.Message{}, ctx.Err()
		}
	}
}

// popLocked removes and returns the queue head, nilling out the consumed
// slot so the backing array does not pin delivered messages, and
// releasing the array entirely once drained.
func (c *Conn) popLocked() transport.Message {
	m := c.rqueue[0]
	c.rqueue[0] = transport.Message{}
	c.rqueue = c.rqueue[1:]
	if len(c.rqueue) == 0 {
		c.rqueue = nil
	}
	return m
}

// Close flushes pending batches (stopping their flush timers, so none
// fires into the closed endpoint) and closes the wrapped endpoint.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.Flush()
	return c.inner.Close()
}

// WrapHandler makes a base-object handler batch-aware: a wire.Batch
// request is unpacked and each op applied atomically in order (the
// transport serializes Handle calls exactly as for bare messages), and
// the produced replies travel back as one Batch. Non-batch requests pass
// through untouched, so a batching client and an unbatched client can
// share an object. The wrapper forwards transport.Amnesiac, so an
// amnesia restart reaches the wrapped handler through the batching
// layer.
func WrapHandler(h transport.Handler) transport.Handler {
	return &batchHandler{inner: h}
}

// batchHandler is the WrapHandler implementation; a named type (rather
// than a HandlerFunc closure) so it can forward the optional Forget.
type batchHandler struct{ inner transport.Handler }

// Handle unpacks Batch frames and applies each op in order.
func (b *batchHandler) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	batch, ok := req.(wire.Batch)
	if !ok {
		return b.inner.Handle(from, req)
	}
	var replies []wire.Msg
	for _, op := range batch.Ops {
		if reply, send := b.inner.Handle(from, op); send {
			replies = append(replies, reply)
		}
	}
	switch len(replies) {
	case 0:
		return nil, false
	case 1:
		return replies[0], true
	default:
		return wire.Batch{Ops: replies}, true
	}
}

// Forget forwards an amnesia wipe to the wrapped handler when it
// supports one.
func (b *batchHandler) Forget() {
	if a, ok := b.inner.(transport.Amnesiac); ok {
		a.Forget()
	}
}
