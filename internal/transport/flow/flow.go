// Package flow is the shared flow-control core of the transport stack:
// bounded per-link mailboxes with drop-oldest shedding, credit
// accounting for in-flight budgets, and the counters every layer
// reports into. The paper's liveness argument assumes a responsive
// quorum of base objects; without bounds, a saturating workload turns
// overload into unbounded queue growth and silent tail-latency collapse
// instead of a signal the client can act on. The layers above compose
// the primitives here:
//
//   - transport.Inbox is backed by Mailbox. Budgets are enforced only
//     where shedding is provably safe — the REQUEST path, where the
//     client's hedge re-drives whatever was refused. Reply mailboxes
//     are instrumented (depth reported) but never shed: a reply cannot
//     be re-elicited (objects deliberately do not re-acknowledge served
//     duplicates), so reply backlog is bounded by request admission
//     upstream instead — which is what credit-based flow control means.
//   - the batch layer holds pending ops against a Credits budget and
//     answers exhaustion with a synthetic wire.Busy instead of queueing
//     without bound (coalesce-or-pushback).
//   - memnet and tcpnet bound the object-side request queue (total, and
//     per sender) and reply a wire.Busy naming the rejected ops beyond it —
//     overload becomes an explicit, actionable signal on the wire.
//   - the store's client mux treats a Busy (or a shed send) as a
//     transiently slow object: it still needs only S−t replies, so it
//     sheds up to t slow members per round and hedges the stragglers
//     with delayed re-sends instead of blocking.
//
// The package depends only on the telemetry core (internal/obs) so
// every transport layer (and the store) can share one Counters
// instance — and a telemetry-enabled store can mount those same
// counters on its metrics registry via Counters.Describe.
package flow

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrClosed is returned by Mailbox.Recv after Close.
var ErrClosed = errors.New("flow: mailbox closed")

// Flow-control defaults. LinkBudget bounds one sender's share of an
// object's pending-request queue; ObjectBudget bounds that queue in
// total; BatchBudget bounds the batch layer's pending ops per
// endpoint; HedgeDelay paces the straggler re-sends (doubling per
// hedge up to MaxHedgeBackoff times the base delay).
const (
	DefaultLinkBudget   = 64
	DefaultObjectBudget = 256
	DefaultBatchBudget  = 1024
	DefaultHedgeDelay   = 2 * time.Millisecond
	MaxHedgeBackoff     = 64
)

// Options are the end-to-end flow-control knobs of a deployment. The
// zero value of each field selects its default; HedgeMax = 0 means
// unlimited hedging (the liveness backstop never gives up, it only
// backs off).
type Options struct {
	// LinkBudget caps one sender's share of a base object's bounded
	// request queue: beyond it the sender's next request is answered
	// with wire.Busy even while the total queue has room, so one
	// flooding client cannot monopolize the object. Enforced on the
	// memnet object queue; on tcpnet the serving model is structurally
	// stricter already — each connection has at most one request in
	// service, and a client holds one connection per object, so a
	// sender's share is 1 regardless of this knob. Request-path only:
	// shedding a request is always safe (the client's hedge re-sends
	// it), whereas a shed REPLY could never be re-elicited, which is
	// why reply mailboxes are instrumented, not enforced.
	LinkBudget int
	// ObjectBudget caps a base object's pending-request queue (memnet)
	// or its concurrently admitted requests (tcpnet); beyond it the
	// object answers wire.Busy instead of queueing.
	ObjectBudget int
	// BatchBudget caps the batch layer's total pending (coalescing,
	// unshipped) ops per endpoint; beyond it Send pushes back with a
	// synthetic wire.Busy instead of queueing.
	BatchBudget int
	// HedgeDelay is the base delay before a register's unanswered
	// round is re-sent to its stragglers, doubling per hedge up to
	// MaxHedgeBackoff × HedgeDelay.
	HedgeDelay time.Duration
	// HedgeMax caps the hedges per round; 0 = unlimited (backoff-paced).
	HedgeMax int
}

// WithDefaults fills zero knobs.
func (o Options) WithDefaults() Options {
	if o.LinkBudget <= 0 {
		o.LinkBudget = DefaultLinkBudget
	}
	if o.ObjectBudget <= 0 {
		o.ObjectBudget = DefaultObjectBudget
	}
	if o.BatchBudget <= 0 {
		o.BatchBudget = DefaultBatchBudget
	}
	if o.HedgeDelay <= 0 {
		o.HedgeDelay = DefaultHedgeDelay
	}
	return o
}

// Validate checks the knobs' arithmetic.
func (o Options) Validate() error {
	if o.LinkBudget < 0 || o.ObjectBudget < 0 || o.BatchBudget < 0 || o.HedgeMax < 0 {
		return fmt.Errorf("flow: negative budget in %+v", o)
	}
	if o.HedgeDelay < 0 {
		return fmt.Errorf("flow: negative hedge delay %v", o.HedgeDelay)
	}
	return nil
}

// Counters aggregates flow-control activity across every layer that
// shares them. All methods are safe for concurrent use; a nil receiver
// is a no-op, so layers can thread an optional *Counters without
// branching. The fields are obs instruments so a telemetry-enabled
// deployment can mount the same instances on its registry (Describe)
// while every existing call site keeps writing through the methods
// below.
type Counters struct {
	pushbacks      obs.Counter
	batchPushbacks obs.Counter
	sheds          obs.Counter
	hedges         obs.Counter
	inboxSheds     obs.Counter
	passThrough    obs.Counter
	coalesced      obs.Counter

	linkHighWater   obs.Watermark
	inboxHighWater  obs.Watermark
	objectHighWater obs.Watermark
	batchHighWater  obs.Watermark
}

// Describe mounts the counters on an obs scope (both sides nil-safe),
// under the names Snapshot/String already use.
func (c *Counters) Describe(s *obs.Scope) {
	if c == nil || s == nil {
		return
	}
	s.AttachCounter("pushbacks", &c.pushbacks)
	s.AttachCounter("batch_pushbacks", &c.batchPushbacks)
	s.AttachCounter("sheds", &c.sheds)
	s.AttachCounter("hedges", &c.hedges)
	s.AttachCounter("inbox_sheds", &c.inboxSheds)
	s.AttachCounter("pass_through", &c.passThrough)
	s.AttachCounter("coalesced", &c.coalesced)
	s.AttachWatermark("link_high_water", &c.linkHighWater)
	s.AttachWatermark("inbox_high_water", &c.inboxHighWater)
	s.AttachWatermark("object_high_water", &c.objectHighWater)
	s.AttachWatermark("batch_high_water", &c.batchHighWater)
}

// AddPushback counts one op bounced by a wire.Busy a client mux observed.
func (c *Counters) AddPushback() {
	if c != nil {
		c.pushbacks.Inc()
	}
}

// AddBatchPushback counts one send rejected at the batch layer's
// pending budget.
func (c *Counters) AddBatchPushback() {
	if c != nil {
		c.batchPushbacks.Inc()
	}
}

// AddShed counts one send skipped because the member was marked slow.
func (c *Counters) AddShed() {
	if c != nil {
		c.sheds.Inc()
	}
}

// AddHedge counts one straggler re-send.
func (c *Counters) AddHedge() {
	if c != nil {
		c.hedges.Inc()
	}
}

// AddInboxShed counts one message dropped (oldest-per-link) at a
// bounded receive mailbox.
func (c *Counters) AddInboxShed() {
	if c != nil {
		c.inboxSheds.Inc()
	}
}

// AddPassThrough counts one op the batch layer shipped immediately
// because the link was below its coalescing activation threshold.
func (c *Counters) AddPassThrough() {
	if c != nil {
		c.passThrough.Inc()
	}
}

// AddCoalesced counts one op the batch layer held for coalescing.
func (c *Counters) AddCoalesced() {
	if c != nil {
		c.coalesced.Inc()
	}
}

// RecordLink tracks the deepest per-link mailbox backlog observed.
func (c *Counters) RecordLink(depth int) {
	if c != nil {
		c.linkHighWater.Record(int64(depth))
	}
}

// RecordInbox tracks the deepest total mailbox backlog observed.
func (c *Counters) RecordInbox(depth int) {
	if c != nil {
		c.inboxHighWater.Record(int64(depth))
	}
}

// RecordObject tracks the deepest object-side request backlog observed.
func (c *Counters) RecordObject(depth int) {
	if c != nil {
		c.objectHighWater.Record(int64(depth))
	}
}

// RecordBatch tracks the deepest batch-layer pending backlog observed.
func (c *Counters) RecordBatch(depth int) {
	if c != nil {
		c.batchHighWater.Record(int64(depth))
	}
}

// Snapshot returns the counters as a Stats value.
func (c *Counters) Snapshot() Stats {
	if c == nil {
		return Stats{}
	}
	return Stats{
		Pushbacks:       c.pushbacks.Load(),
		BatchPushbacks:  c.batchPushbacks.Load(),
		Sheds:           c.sheds.Load(),
		Hedges:          c.hedges.Load(),
		InboxSheds:      c.inboxSheds.Load(),
		PassThrough:     c.passThrough.Load(),
		Coalesced:       c.coalesced.Load(),
		LinkHighWater:   c.linkHighWater.Load(),
		InboxHighWater:  c.inboxHighWater.Load(),
		ObjectHighWater: c.objectHighWater.Load(),
		BatchHighWater:  c.batchHighWater.Load(),
	}
}

// Stats is a point-in-time snapshot of flow-control activity.
type Stats struct {
	Pushbacks      int64 // ops bounced by the wire.Busy notices client muxes observed
	BatchPushbacks int64 // sends rejected at the batch layer's pending budget
	Sheds          int64 // sends skipped because the member was marked slow
	Hedges         int64 // straggler re-sends fired
	InboxSheds     int64 // messages dropped (oldest-per-link) at bounded mailboxes
	PassThrough    int64 // ops the batch layer shipped immediately (below activation threshold)
	Coalesced      int64 // ops the batch layer held for coalescing

	LinkHighWater   int64 // deepest per-link mailbox backlog observed
	InboxHighWater  int64 // deepest total mailbox backlog observed
	ObjectHighWater int64 // deepest object-side request backlog observed
	BatchHighWater  int64 // deepest batch-layer pending backlog observed
}

// Add returns the fieldwise sum for the additive counters and the max
// for the high watermarks (aggregating across shards).
func (s Stats) Add(o Stats) Stats {
	return Stats{
		Pushbacks:       s.Pushbacks + o.Pushbacks,
		BatchPushbacks:  s.BatchPushbacks + o.BatchPushbacks,
		Sheds:           s.Sheds + o.Sheds,
		Hedges:          s.Hedges + o.Hedges,
		InboxSheds:      s.InboxSheds + o.InboxSheds,
		PassThrough:     s.PassThrough + o.PassThrough,
		Coalesced:       s.Coalesced + o.Coalesced,
		LinkHighWater:   max(s.LinkHighWater, o.LinkHighWater),
		InboxHighWater:  max(s.InboxHighWater, o.InboxHighWater),
		ObjectHighWater: max(s.ObjectHighWater, o.ObjectHighWater),
		BatchHighWater:  max(s.BatchHighWater, o.BatchHighWater),
	}
}

// String renders the counters compactly for reports.
func (s Stats) String() string {
	return fmt.Sprintf("pushbacks=%d batch_pushbacks=%d sheds=%d hedges=%d inbox_sheds=%d pass_through=%d coalesced=%d hw[link=%d inbox=%d object=%d batch=%d]",
		s.Pushbacks, s.BatchPushbacks, s.Sheds, s.Hedges, s.InboxSheds,
		s.PassThrough, s.Coalesced,
		s.LinkHighWater, s.InboxHighWater, s.ObjectHighWater, s.BatchHighWater)
}

// Mailbox is a bounded multi-producer receive mailbox with per-link
// budgets: Push appends a delivered item and Recv blocks for the next
// one, the context, or Close. With budget > 0, a link (key) may hold at
// most budget queued items — pushing beyond the budget sheds the OLDEST
// item of that link, so the newest delivery per sender always survives
// (the one a protocol round can still use). budget ≤ 0 is unbounded,
// preserving the pre-flow-control semantics.
//
// The wakeup token is re-armed whenever items remain, so back-to-back
// pushes cannot strand a parked receiver on a non-empty queue, and
// consumed slots are zeroed so the queue never pins delivered payloads.
type Mailbox[K comparable, T any] struct {
	budget int
	ctrs   *Counters

	mu       sync.Mutex
	queue    []mailboxEntry[K, T]
	perLink  map[K]int
	sheds    int64
	linkHW   int
	totalHW  int
	waiters  int // receivers parked in Recv with an empty queue
	notify   chan struct{}
	closedCh chan struct{}
	closed   bool
}

type mailboxEntry[K comparable, T any] struct {
	key K
	val T
}

// NewMailbox returns an empty, open mailbox with the given per-link
// budget (≤ 0 = unbounded) reporting into ctrs (nil = local counting
// only).
func NewMailbox[K comparable, T any](budget int, ctrs *Counters) *Mailbox[K, T] {
	m := &Mailbox[K, T]{
		budget:   budget,
		ctrs:     ctrs,
		notify:   make(chan struct{}, 1),
		closedCh: make(chan struct{}),
	}
	if budget > 0 {
		// Only an enforced mailbox pays the per-link bookkeeping;
		// unbounded and instrumented ones skip the map entirely.
		m.perLink = make(map[K]int)
	}
	return m
}

// Push enqueues v on link k; after Close it reports false and drops the
// item (forever "in transit"). Over-budget links shed their oldest
// queued item — Push itself still reports true: the NEW item was
// accepted.
func (b *Mailbox[K, T]) Push(k K, v T) bool {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return false
	}
	if b.budget > 0 {
		// Per-link bookkeeping (and the per-link watermark it feeds)
		// only exists on ENFORCED mailboxes: instrumented-unbounded ones
		// (budget 0) are bounded by upstream admission, not by this
		// mailbox, and skip the map maintenance on the hot path.
		if b.perLink[k] >= b.budget {
			b.shedOldestLocked(k)
		}
		n := b.perLink[k] + 1
		b.perLink[k] = n
		if n > b.linkHW {
			b.linkHW = n
		}
		b.ctrs.RecordLink(n)
	}
	b.queue = append(b.queue, mailboxEntry[K, T]{key: k, val: v})
	if len(b.queue) > b.totalHW {
		b.totalHW = len(b.queue)
	}
	b.ctrs.RecordInbox(len(b.queue))
	b.mu.Unlock()
	select {
	case b.notify <- struct{}{}:
	default:
	}
	return true
}

// shedOldestLocked removes the oldest queued item of link k.
func (b *Mailbox[K, T]) shedOldestLocked(k K) {
	for i := range b.queue {
		if b.queue[i].key == k {
			copy(b.queue[i:], b.queue[i+1:])
			b.queue[len(b.queue)-1] = mailboxEntry[K, T]{}
			b.queue = b.queue[:len(b.queue)-1]
			b.perLink[k]--
			b.sheds++
			b.ctrs.AddInboxShed()
			return
		}
	}
}

// Recv returns the next queued item, draining what was delivered before
// Close and then returning ErrClosed.
func (b *Mailbox[K, T]) Recv(ctx context.Context) (T, error) {
	var zero T
	for {
		b.mu.Lock()
		if len(b.queue) > 0 {
			e := b.queue[0]
			b.queue[0] = mailboxEntry[K, T]{}
			b.queue = b.queue[1:]
			if b.budget > 0 {
				if b.perLink[e.key]--; b.perLink[e.key] == 0 {
					delete(b.perLink, e.key)
				}
			}
			if len(b.queue) == 0 {
				b.queue = nil
			} else {
				// Re-arm the wakeup token for any other parked receiver.
				select {
				case b.notify <- struct{}{}:
				default:
				}
			}
			b.mu.Unlock()
			return e.val, nil
		}
		if b.closed {
			b.mu.Unlock()
			return zero, ErrClosed
		}
		b.waiters++
		b.mu.Unlock()
		var err error
		select {
		case <-b.notify:
		case <-ctx.Done():
			err = ctx.Err()
		case <-b.closedCh:
			err = ErrClosed
		}
		b.mu.Lock()
		b.waiters--
		b.mu.Unlock()
		if err != nil {
			return zero, err
		}
	}
}

// Waiters returns how many receivers are parked in Recv on an empty
// queue — the flow layer's ground truth for "this consumer is still
// waiting for something". The store's hedge timers use it to tell a
// stalled protocol round (a receiver is parked: keep re-driving the
// stragglers) from a completed one (nobody is waiting: go quiet).
func (b *Mailbox[K, T]) Waiters() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiters
}

// Close wakes every pending Recv; it is idempotent.
func (b *Mailbox[K, T]) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.closed {
		b.closed = true
		close(b.closedCh)
	}
}

// Depth returns the total queued items.
func (b *Mailbox[K, T]) Depth() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.queue)
}

// Sheds returns how many items this mailbox dropped at its budget.
func (b *Mailbox[K, T]) Sheds() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sheds
}

// LinkHighWater returns the deepest per-link backlog observed.
func (b *Mailbox[K, T]) LinkHighWater() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.linkHW
}

// HighWater returns the deepest total backlog observed.
func (b *Mailbox[K, T]) HighWater() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.totalHW
}

// Credits is a counting semaphore for in-flight budgets: TryAcquire
// claims one credit without blocking (overload must signal, not stall)
// and Release returns credits when the work leaves the queue.
type Credits struct {
	mu        sync.Mutex
	inUse     int
	max       int
	highWater int
}

// NewCredits returns a budget of n credits (n ≤ 0 = unlimited).
func NewCredits(n int) *Credits { return &Credits{max: n} }

// TryAcquire claims one credit, reporting false at the budget.
func (c *Credits) TryAcquire() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.max > 0 && c.inUse >= c.max {
		return false
	}
	c.inUse++
	if c.inUse > c.highWater {
		c.highWater = c.inUse
	}
	return true
}

// Release returns n credits.
func (c *Credits) Release(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inUse -= n
	if c.inUse < 0 {
		c.inUse = 0 // a programming error upstream must not wedge the budget
	}
}

// InUse returns the outstanding credits.
func (c *Credits) InUse() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inUse
}

// HighWater returns the deepest outstanding-credit count observed.
func (c *Credits) HighWater() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.highWater
}
