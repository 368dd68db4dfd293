package store

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/membership"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/flow"
	"repro/internal/types"
	"repro/internal/wire"
)

// mux multiplexes many per-register protocol clients onto one physical
// transport endpoint. Each register client holds a regConn whose Send
// wraps outgoing messages in a wire.RegOp envelope; a single dispatch
// goroutine pumps the physical endpoint and routes incoming RegOps to
// the owning register's inbox. Sharing the physical endpoint is what
// lets the transport batching layer coalesce ops from different
// registers into one frame.
//
// With membership enabled, the mux is also the client side of the
// reconfiguration protocol: protocol clients keep addressing LOGICAL
// object slots 0..S−1 while the mux translates them to the current
// view's physical addresses, stamps every request with the
// configuration epoch, adopts signed ConfigUpdate redirects (replaying
// each register's in-flight op to the new member list, so a lagging
// client self-heals in one extra round-trip), and admits replies only
// from addresses in the current view — a zombie reply from an evicted
// member can never count toward a quorum.
type mux struct {
	conn transport.Conn

	// ctx bounds the dispatch loop's blocking Recv; close cancels it so
	// shutdown does not depend on the transport noticing its own
	// closure.
	ctx    context.Context
	cancel context.CancelFunc

	mu     sync.Mutex
	regs   map[string]*regConn
	closed bool

	// inc tracks the highest incarnation seen per sender (only the
	// dispatch goroutine touches it). Recovery-enabled objects stamp
	// every reply with their incarnation (wire.RegOp.Inc); a reply from an
	// earlier incarnation was minted before the sender's amnesia crash,
	// reflects state the sender no longer holds, and must not count
	// toward a quorum. Keys are physical endpoints: a replacement member
	// restarts the incarnation clock at its fresh address.
	inc map[transport.NodeID]int64

	// members is the reconfiguration state (nil when the deployment runs
	// without membership) — an atomic pointer so the non-membership hot
	// path stays lock-free. The view inside is guarded by mu.
	members atomic.Pointer[muxMembership]

	// flow is the slow-object handling state (nil when the deployment
	// runs without flow control) — an atomic pointer for the same
	// reason. The busy map inside is guarded by mu.
	flow atomic.Pointer[muxFlow]

	// trace is the op-trace sink (nil without telemetry) — an atomic
	// pointer so the traceless paths stay untouched. Mux-level trace
	// events (busy, shed, hedge, stale, adopt) only arise on flow or
	// membership paths, so the plain lock-free hot path in Send never
	// consults it.
	trace atomic.Pointer[muxTrace]
}

// muxTrace labels this endpoint's trace events with its shard.
type muxTrace struct {
	tr    *obs.Tracer
	shard int
}

// muxFlow is one client endpoint's slow-object state. The protocols
// need only S−t replies per round, so a member that pushed back with
// wire.Busy (or whose link budget was exhausted) is treated as
// transiently slow: the mux sheds it from up to shed (= t) broadcast
// sends per round and re-drives the round's unanswered members with
// delayed, exponentially backed-off hedges instead of blocking. A shed
// or bounced request is therefore never lost — the hedge is timer-
// driven, so even a silently dropped reply or Busy is eventually
// re-driven, which is what keeps bounded queues from costing liveness.
type muxFlow struct {
	opts flow.Options
	ctrs *flow.Counters
	s    int // logical member slots per shard
	shed int // max members shed per round: the t the quorum can spare

	busyUntil map[int]time.Time // slot → busy-mark expiry, guarded by mux.mu
}

// busyLocked reports whether a slot is inside its busy cooldown.
func (fl *muxFlow) busyLocked(slot int) bool {
	until, ok := fl.busyUntil[slot]
	return ok && time.Now().Before(until)
}

// fullDriveAfter is the hedge volley count after which a still-stuck
// round is re-driven at FULL membership instead of its apparent
// stragglers — the replied map can be partially poisoned by stale
// previous-round replies, and only a full volley is immune to that.
const fullDriveAfter = 2

// muxMembership is one client endpoint's view of its shard's
// configuration.
type muxMembership struct {
	auth     *membership.Auth
	counters *membership.Counters
	view     membership.View // guarded by mux.mu
}

// newMux wraps conn and starts the dispatch loop.
func newMux(conn transport.Conn) *mux {
	ctx, cancel := context.WithCancel(context.Background())
	m := &mux{conn: conn, ctx: ctx, cancel: cancel, regs: make(map[string]*regConn), inc: make(map[transport.NodeID]int64)}
	go m.dispatch()
	return m
}

// enableMembership turns on config-epoch stamping and redirect handling
// with the given starting view. Call it right after newMux, before any
// register traffic.
func (m *mux) enableMembership(auth *membership.Auth, counters *membership.Counters, view membership.View) {
	m.members.Store(&muxMembership{auth: auth, counters: counters, view: view})
}

// enableFlow turns on slow-object handling: Busy pushbacks mark members
// busy, broadcasts shed up to shedBudget busy members per round, and a
// per-register hedge timer re-sends the round to unanswered members.
// Register inboxes created afterwards report their depth into the
// shared counters. Call it right after newMux, before any register
// traffic.
func (m *mux) enableFlow(opts flow.Options, ctrs *flow.Counters, s, shedBudget int) {
	m.flow.Store(&muxFlow{opts: opts.WithDefaults(), ctrs: ctrs, s: s, shed: shedBudget, busyUntil: make(map[int]time.Time)})
}

// enableTrace turns on op-trace events for this endpoint's flow and
// membership handling (no-op when tracing is disabled). Call it right
// after newMux, before any register traffic.
func (m *mux) enableTrace(tr *obs.Tracer, shard int) {
	if tr == nil {
		return
	}
	m.trace.Store(&muxTrace{tr: tr, shard: shard})
}

// bindOp attributes the register's next protocol traffic to the given
// trace operation ID: mux-level events (shed, hedge, busy, stale)
// recorded for this register carry it until the next bind.
func (m *mux) bindOp(reg string, op uint64) {
	rc := m.register(reg)
	m.mu.Lock()
	rc.curOp = op
	m.mu.Unlock()
}

// register returns the virtual endpoint of the named register, creating
// it on first use.
func (m *mux) register(reg string) *regConn {
	m.mu.Lock()
	defer m.mu.Unlock()
	rc := m.regs[reg]
	if rc == nil {
		inbox := transport.NewInbox()
		if fl := m.flow.Load(); fl != nil {
			// Instrumented, not enforced: a queued reply can never be
			// re-elicited (objects do not re-ack served duplicates), so
			// reply backlog is bounded by request admission upstream —
			// the object and batch budgets — never by local shedding.
			inbox = transport.NewBoundedInbox(0, fl.ctrs)
		}
		rc = &regConn{mux: m, reg: reg, inbox: inbox, lastDest: -1}
		if m.closed {
			rc.closeLocked()
		}
		m.regs[reg] = rc
	}
	return rc
}

// dispatch routes delivered RegOps to register inboxes until the
// physical endpoint closes; traffic without a register envelope is
// dropped (no single-register client shares a muxed endpoint).
func (m *mux) dispatch() {
	for {
		msg, err := m.conn.Recv(m.ctx)
		if err != nil {
			m.mu.Lock()
			m.closed = true
			regs := make([]*regConn, 0, len(m.regs))
			for _, rc := range m.regs {
				regs = append(regs, rc)
			}
			m.mu.Unlock()
			for _, rc := range regs {
				rc.close()
			}
			return
		}
		payload := msg.Payload
		from := msg.From
		ms := m.members.Load()
		if bz, isBusy := payload.(wire.Busy); isBusy {
			// Overload pushback from a base object (or synthesized by the
			// batch layer at its pending budget): mark the sender busy so
			// subsequent broadcasts shed it, and let the hedge timers
			// re-drive the bounced ops. Never forwarded to protocol
			// clients — to them the object is merely slow.
			if fl := m.flow.Load(); fl != nil {
				m.handleBusy(ms, fl, from, bz)
			}
			continue
		}
		if ms != nil {
			if cu, isUpdate := payload.(wire.ConfigUpdate); isUpdate {
				m.adopt(ms, cu)
				continue
			}
		}
		op, ok := payload.(wire.RegOp)
		if !ok {
			continue
		}
		if inc, stamped := op.Inc.Get(); stamped {
			if inc < m.inc[from] {
				// Stale incarnation: a zombie reply from a pre-amnesia life.
				m.traceReject(obs.EvStaleEpoch, op, from, fmt.Sprintf("inc=%d", inc))
				continue
			}
			m.inc[from] = inc
		}
		// One lock hold covers the member-list admission check (replies
		// only count from addresses in the current view, translated back
		// to the logical slot protocol clients validate) and the
		// register lookup.
		var rc *regConn
		stale := false
		m.mu.Lock()
		if ms != nil && from.Kind == transport.KindObject {
			if slot, member := ms.view.Slot(from.Index); member {
				from = transport.Object(types.ObjectID(slot))
			} else {
				// The sender's address is not in the current view: a
				// reply from an endpoint evicted by reconfiguration.
				stale = true
			}
		}
		if !stale {
			rc = m.regs[op.Reg]
		}
		if fl := m.flow.Load(); fl != nil && !stale && rc != nil &&
			from.Kind == transport.KindObject && from.Index >= 0 && from.Index < fl.s {
			// A protocol reply proves the member is serving again: clear
			// its busy mark and record it answered this register's round,
			// so hedges stop re-driving it.
			delete(fl.busyUntil, from.Index)
			if rc.replied != nil {
				rc.replied[from.Index] = true
			}
		}
		m.mu.Unlock()
		if stale {
			ms.counters.StaleReplies.Add(1)
			m.traceReject(obs.EvStaleReply, op, from, "evicted address")
			continue
		}
		if rc != nil {
			rc.push(transport.Message{From: from, Payload: op.Msg})
		}
	}
}

// traceReject records a discarded-reply event (a stale incarnation, or
// a reply from an address evicted by reconfiguration), attributed to
// the op whose trace ID the reply echoes. No-op without tracing.
func (m *mux) traceReject(kind obs.EventKind, reply wire.RegOp, from transport.NodeID, detail string) {
	mt := m.trace.Load()
	if mt == nil {
		return
	}
	member := -1
	if from.Kind == transport.KindObject {
		member = from.Index
	}
	mt.tr.Record(obs.Event{Op: reply.Op, Kind: kind, Key: reply.Reg, Shard: mt.shard, Member: member, Detail: detail})
}

// adopt installs the view a redirect carries — if its signature
// verifies and it is newer than the current one — and re-broadcasts
// every register's last outgoing op to the new member list, stamped
// with the new epoch. The replay is what makes the self-heal one
// round-trip: the op the redirect interrupted reaches the full current
// membership (including the replacement object) without waiting for
// the protocol client to time out. Replayed ops are duplicates to
// members that already served them, which every protocol here already
// tolerates (objects guard by timestamp, clients dedupe by responder —
// the fault layer's duplication dice exercise the same path).
func (m *mux) adopt(ms *muxMembership, cu wire.ConfigUpdate) {
	view, authentic := ms.auth.VerifyUpdate(cu)
	if !authentic {
		ms.counters.BadUpdates.Add(1)
		return
	}
	m.mu.Lock()
	if view.Shard != ms.view.Shard {
		// The deployment key is shared across shards; the signed Shard
		// field is what stops a shard-A update from rerouting shard-B
		// clients onto foreign addresses. Enforce it.
		m.mu.Unlock()
		ms.counters.BadUpdates.Add(1)
		return
	}
	if view.Epoch <= ms.view.Epoch {
		m.mu.Unlock()
		return // already there (every surviving member redirects; one wins)
	}
	ms.view = view
	replays := make([]wire.RegOp, 0, len(m.regs))
	for _, rc := range m.regs {
		if rc.lastOut.Msg != nil {
			replays = append(replays, rc.lastOut)
		}
	}
	addrs := make([]transport.NodeID, len(view.Members))
	for slot := range view.Members {
		addrs[slot] = view.Addr(slot)
	}
	epoch := view.Epoch
	m.mu.Unlock()
	ms.counters.Adoptions.Add(1)
	if mt := m.trace.Load(); mt != nil {
		mt.tr.Record(obs.Event{Kind: obs.EvAdopt, Shard: mt.shard, Member: -1,
			Detail: fmt.Sprintf("epoch=%d replays=%d", epoch, len(replays))})
	}
	for _, op := range replays {
		op.Cfg = wire.StampOf(epoch)
		for _, to := range addrs {
			m.conn.Send(to, op)
		}
		ms.counters.Replays.Add(1)
	}
}

// handleBusy processes one overload pushback: the sender (translated to
// its logical slot under membership) is marked busy for a hedge-delay
// cooldown, and one pushback is counted — and, with tracing, one busy
// event recorded — per protocol op the notice names (a bounced Batch
// frame rejects every op inside). The bounced ops themselves need no
// bookkeeping: each op's register armed its hedge timer when the round
// was sent, and the member's missing reply keeps it on the straggler
// list the hedge re-drives.
func (m *mux) handleBusy(ms *muxMembership, fl *muxFlow, from transport.NodeID, bz wire.Busy) {
	if from.Kind != transport.KindObject {
		return
	}
	slot := from.Index
	m.mu.Lock()
	if ms != nil {
		s, member := ms.view.Slot(from.Index)
		if !member {
			m.mu.Unlock()
			ms.counters.StaleReplies.Add(1)
			return
		}
		slot = s
	}
	if slot < 0 || slot >= fl.s {
		m.mu.Unlock()
		return
	}
	fl.busyUntil[slot] = time.Now().Add(fl.opts.HedgeDelay)
	m.mu.Unlock()
	mt := m.trace.Load()
	for _, ref := range bz.Ops {
		fl.ctrs.AddPushback()
		if mt != nil {
			mt.tr.Record(obs.Event{Op: ref.Op, Kind: obs.EvBusy, Key: ref.Reg, Shard: mt.shard, Member: slot})
		}
	}
}

// close cancels dispatch's Recv and shuts the physical endpoint down;
// dispatch then closes every register inbox.
func (m *mux) close() error {
	m.cancel()
	return m.conn.Close()
}

// regConn is the virtual transport.Conn of one register: protocol
// clients from internal/core run over it unchanged.
type regConn struct {
	mux   *mux
	reg   string
	inbox *transport.Inbox

	// lastOut is the register's latest outgoing op (guarded by mux.mu;
	// no Msg before the first send), kept for replay after a
	// configuration adoption and for hedging. One message suffices: the
	// protocols are lockstep per register — each round broadcasts one
	// identical message to every slot before the client waits on
	// replies.
	lastOut wire.RegOp

	// curOp is the trace operation ID of the register's in-flight op
	// (guarded by mux.mu; 0 without telemetry or before any bind).
	curOp uint64

	// Flow-control round state, guarded by mux.mu. The protocols
	// broadcast each round to slots 0..S−1 in ascending order, so a send
	// to a slot ≤ the previous one marks a new round.
	lastDest   int          // destination slot of the previous send (−1 before any)
	replied    map[int]bool // slots heard from since the round began
	shedCount  int          // busy members skipped this round (≤ the shed budget)
	hedges     int          // hedge volleys fired this round (drives the backoff)
	idleFires  int          // consecutive no-waiter timer fires (drives the idle backoff)
	hedgeTimer *time.Timer
	closed     bool
}

var _ transport.Conn = (*regConn)(nil)

// ID returns the physical endpoint's node identity.
func (c *regConn) ID() transport.NodeID { return c.mux.conn.ID() }

// Send puts payload behind the register header and ships it over the
// shared endpoint. With membership enabled, the logical destination
// slot is translated to the current view's physical address and the
// header is stamped with the configuration epoch. With flow control
// enabled, a send that begins a new round resets the round state and
// arms the hedge timer, and up to t busy members per round are shed —
// skipped now, re-driven by the hedge — because the protocol above
// needs only S−t replies anyway.
func (c *regConn) Send(to transport.NodeID, payload wire.Msg) {
	op := wire.RegOp{Reg: c.reg, Msg: payload}
	m := c.mux
	ms := m.members.Load()
	fl := m.flow.Load()
	if ms == nil && fl == nil {
		if m.trace.Load() != nil {
			// Traced deployment: stamp the envelope with the in-flight
			// op's trace ID so the server side can attribute its events.
			// The untraced hot path never takes the lock.
			m.mu.Lock()
			op.Op = c.curOp
			m.mu.Unlock()
		}
		m.conn.Send(to, op) // lock-free: the plain hot path, unchanged
		return
	}
	m.mu.Lock()
	shed := false
	if fl != nil && to.Kind == transport.KindObject && !c.closed {
		if to.Index <= c.lastDest || c.replied == nil {
			c.beginRoundLocked(fl)
		}
		c.lastDest = to.Index
		if c.shedCount < fl.shed && fl.busyLocked(to.Index) {
			c.shedCount++
			shed = true
		}
	}
	// Stamp before recording lastOut, so hedge volleys and adoption
	// replays of this op keep its trace ID on the wire.
	op.Op = c.curOp
	addr := to
	if ms != nil {
		op.Cfg = wire.StampOf(ms.view.Epoch)
		if to.Kind == transport.KindObject && to.Index >= 0 && to.Index < len(ms.view.Members) {
			addr = ms.view.Addr(to.Index)
		}
	}
	c.lastOut = op
	m.mu.Unlock()
	if shed {
		fl.ctrs.AddShed()
		if mt := m.trace.Load(); mt != nil {
			mt.tr.Record(obs.Event{Op: op.Op, Kind: obs.EvShed, Key: c.reg, Shard: mt.shard, Member: to.Index})
		}
		return // the busy member stays a straggler; the hedge reaches it
	}
	m.conn.Send(addr, op)
}

// beginRoundLocked resets the per-round flow state and arms the hedge
// timer at its base delay.
func (c *regConn) beginRoundLocked(fl *muxFlow) {
	c.replied = make(map[int]bool, fl.s)
	c.shedCount = 0
	c.hedges = 0
	c.idleFires = 0
	c.armHedgeLocked(fl.opts.HedgeDelay)
}

// armHedgeLocked (re)schedules the hedge volley, reusing one timer per
// register — rounds are per-op hot-path events and must not churn the
// timer heap.
func (c *regConn) armHedgeLocked(d time.Duration) {
	if c.hedgeTimer == nil {
		c.hedgeTimer = time.AfterFunc(d, func() { c.mux.hedge(c) })
		return
	}
	c.hedgeTimer.Stop()
	c.hedgeTimer.Reset(d)
}

// hedge is the liveness backstop that lets every queue in the stack
// stay bounded: it re-drives a round whose protocol client is still
// waiting. The ground truth for "still waiting" is the register inbox's
// waiter count — a protocol client parks in Recv exactly while its
// round is incomplete, so:
//
//   - nobody is parked: the round completed (or the client is mid-
//     processing); send nothing and re-check later at the capped delay.
//   - a receiver is parked: re-send the round to the members that have
//     not answered since it began; if every member has seemingly
//     answered yet the client still waits (late replies from the
//     PREVIOUS round can mark a member answered without it ever seeing
//     the current request), fall back to re-sending to ALL members.
//
// Re-sends are duplicates to members that already served the op, which
// every protocol here tolerates: objects guard by timestamp (a served
// duplicate elicits nothing new) and clients dedupe by responder. The
// volley re-arms itself with exponential backoff capped at
// MaxHedgeBackoff × HedgeDelay, so a stuck round is re-driven at a
// bounded rate and a quiet register costs one no-op timer tick.
func (m *mux) hedge(c *regConn) {
	fl := m.flow.Load()
	if fl == nil {
		return
	}
	ms := m.members.Load()
	m.mu.Lock()
	if m.closed || c.closed || c.lastOut.Msg == nil || c.replied == nil {
		m.mu.Unlock()
		return
	}
	maxB := fl.opts.HedgeDelay * flow.MaxHedgeBackoff
	if c.inbox.Waiters() == 0 {
		// Nothing is waiting on this register right now — usually the
		// round is over (a finished round commonly leaves up to t members
		// unanswered forever, so an incomplete replied set proves
		// nothing). But the fire may also have landed in a microsecond
		// processing gap between the client's Recvs, and a stuck round
		// must not see its liveness backstop postponed to the capped
		// interval by that race: re-check on the idle counter's own
		// backoff — base delay for the first fires, converging to the cap
		// — without consuming hedge budget or resetting the volley
		// backoff. A client that re-parks is caught within a base delay.
		idle := fl.opts.HedgeDelay << uint(min(c.idleFires, 10))
		if idle > maxB || idle <= 0 {
			idle = maxB
		}
		c.idleFires++
		c.armHedgeLocked(idle)
		m.mu.Unlock()
		return
	}
	c.idleFires = 0
	if fl.opts.HedgeMax > 0 && c.hedges >= fl.opts.HedgeMax {
		c.armHedgeLocked(maxB) // out of hedges; keep watching only
		m.mu.Unlock()
		return
	}
	straggler := func(slot int) bool { return !c.replied[slot] }
	anyStraggler := false
	for slot := 0; slot < fl.s; slot++ {
		if straggler(slot) {
			anyStraggler = true
			break
		}
	}
	if !anyStraggler || c.hedges >= fullDriveAfter {
		// Re-drive everyone, not just the apparent stragglers. Either
		// every member seems to have answered while the client still
		// waits (some "answers" were stale traffic), or targeted volleys
		// have not completed the round — and the replied map may be
		// PARTIALLY poisoned: a delayed previous-round reply can mark a
		// member answered that never saw the current request, starving
		// it behind a straggler that never answers (a silent Byzantine
		// member, say). A stuck round is rare and the volleys are
		// backoff-paced, so the duplicate volume is bounded.
		straggler = func(int) bool { return true }
	}
	var targets []transport.NodeID
	for slot := 0; slot < fl.s; slot++ {
		if !straggler(slot) {
			continue
		}
		addr := transport.Object(types.ObjectID(slot))
		if ms != nil && slot < len(ms.view.Members) {
			addr = ms.view.Addr(slot)
		}
		targets = append(targets, addr)
	}
	out := c.lastOut
	opid := c.curOp
	if ms != nil {
		out.Cfg = wire.StampOf(ms.view.Epoch) // the view may have moved since the send
	}
	c.hedges++
	volley := c.hedges
	backoff := fl.opts.HedgeDelay << uint(min(c.hedges, 10))
	if backoff > maxB || backoff <= 0 {
		backoff = maxB
	}
	c.armHedgeLocked(backoff)
	m.mu.Unlock()
	if mt := m.trace.Load(); mt != nil {
		mt.tr.Record(obs.Event{Op: opid, Kind: obs.EvHedge, Key: c.reg, Shard: mt.shard, Member: -1,
			Detail: fmt.Sprintf("targets=%d volley=%d", len(targets), volley)})
	}
	for _, addr := range targets {
		fl.ctrs.AddHedge()
		m.conn.Send(addr, out)
	}
}

// Recv returns the next message addressed to this register.
func (c *regConn) Recv(ctx context.Context) (transport.Message, error) {
	return c.inbox.Recv(ctx)
}

// Close is a no-op: virtual conns share the physical endpoint, which the
// store closes once.
func (c *regConn) Close() error { return nil }

func (c *regConn) push(m transport.Message) {
	c.inbox.Push(m)
}

func (c *regConn) close() {
	c.mux.mu.Lock()
	c.closeLocked()
	c.mux.mu.Unlock()
}

// closeLocked silences the register: the hedge timer is disarmed so no
// volley fires into a closed endpoint.
func (c *regConn) closeLocked() {
	c.closed = true
	if c.hedgeTimer != nil {
		c.hedgeTimer.Stop()
		c.hedgeTimer = nil
	}
	c.inbox.Close()
}

// registry is the multi-register base object: one independent register
// automaton per key, created on first touch by the factory. It applies
// the message behind the RegOp header to the key's automaton (the
// transport serializes Handle calls, preserving the atomic
// read-modify-write object semantics per register) and puts the reply
// behind a header echoing the register and trace ID. A Byzantine factory yields a Byzantine automaton for every
// register of that object — the adversary model per register is exactly
// the paper's.
type registry struct {
	factory func(reg string) transport.Handler

	mu   sync.Mutex
	regs map[string]transport.Handler

	// Server-side telemetry (zero without EnableTrace): every served
	// protocol op counts into the per-member serve counters, and — when
	// the request envelope carries a trace ID — emits a member-attributed
	// serve-write/serve-read event with the object's current queue depth.
	tr     *obs.Tracer
	shard  int
	member int
	depth  func() int // transport queue-depth probe (nil = unknown)

	servedWrites obs.Counter
	servedReads  obs.Counter
}

var _ transport.Handler = (*registry)(nil)

// newRegistry returns a multi-register object backed by factory.
func newRegistry(factory func(reg string) transport.Handler) *registry {
	return &registry{factory: factory, regs: make(map[string]transport.Handler)}
}

// EnableTrace turns on server-side op tracing for this object: served
// protocol ops emit serve events into tr attributed to (shard, member),
// with depth (optional) probing the transport's pending-request queue.
// Call it before the object starts serving.
func (g *registry) EnableTrace(tr *obs.Tracer, shard, member int, depth func() int) {
	g.tr = tr
	g.shard = shard
	g.member = member
	g.depth = depth
}

// Handle implements transport.Handler.
func (g *registry) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	op, ok := req.(wire.RegOp)
	if !ok {
		return nil, false
	}
	g.mu.Lock()
	h := g.regs[op.Reg]
	if h == nil {
		h = g.factory(op.Reg)
		g.regs[op.Reg] = h
	}
	g.mu.Unlock()
	reply, send := h.Handle(from, op.Msg)
	g.traceServe(op)
	if !send {
		return nil, false
	}
	return wire.RegOp{Reg: op.Reg, Op: op.Op, Msg: reply}, true
}

// traceServe counts one served protocol op and, when the envelope is
// traced, records the member-attributed serve event. Round-2 write
// messages (WReq) count as writes alongside the pre-write; both read
// rounds share the read kind, distinguished by the event's Round field.
func (g *registry) traceServe(op wire.RegOp) {
	var kind obs.EventKind
	round := 0
	switch msg := op.Msg.(type) {
	case wire.PWReq:
		kind, round = obs.EvServeWrite, 1
		g.servedWrites.Add(1)
	case wire.WReq:
		kind, round = obs.EvServeWrite, 2
		g.servedWrites.Add(1)
	case wire.ReadReq:
		kind, round = obs.EvServeRead, int(msg.Round)
		g.servedReads.Add(1)
	case wire.BaselineWriteReq:
		kind = obs.EvServeWrite
		g.servedWrites.Add(1)
	case wire.BaselineReadReq:
		kind = obs.EvServeRead
		g.servedReads.Add(1)
	default:
		return // recovery/subscription traffic is not a register op
	}
	if g.tr == nil || op.Op == 0 {
		return
	}
	detail := ""
	if g.depth != nil {
		detail = fmt.Sprintf("queue=%d", g.depth())
	}
	g.tr.Record(obs.Event{Op: op.Op, Kind: kind, Key: op.Reg, Shard: g.shard, Member: g.member, Round: round, Detail: detail})
}

// Registers returns the number of materialized registers (tests and
// metrics).
func (g *registry) Registers() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.regs)
}

// The registry is the recovery subsystem's state surface: a recovering
// object snapshots a healthy sibling's registry, and an amnesia restart
// wipes and later restores its own. Only regular register automata are
// transferable (they expose Snapshot/Restore); store.Open enforces
// regular semantics when recovery is enabled.

// SnapshotRegs deep-copies every regular register automaton's state
// (recovery.StateStore).
func (g *registry) SnapshotRegs() []wire.RegState {
	g.mu.Lock()
	names := make([]string, 0, len(g.regs))
	autos := make([]transport.Handler, 0, len(g.regs))
	for name, h := range g.regs {
		names = append(names, name)
		autos = append(autos, h)
	}
	g.mu.Unlock()
	out := make([]wire.RegState, 0, len(names))
	for i, h := range autos {
		r, ok := h.(*object.Regular)
		if !ok {
			continue
		}
		snap := r.Snapshot() // deep copy under the automaton's own lock
		out = append(out, wire.RegState{Reg: names[i], TS: snap.TS, History: snap.History, TSR: snap.TSR})
	}
	return out
}

// RestoreRegs installs caught-up register states, creating automata on
// demand through the factory so configuration (GC, reader count) is
// preserved across an amnesia wipe (recovery.StateStore).
func (g *registry) RestoreRegs(regs []wire.RegState) {
	for _, rs := range regs {
		g.mu.Lock()
		h := g.regs[rs.Reg]
		if h == nil {
			h = g.factory(rs.Reg)
			g.regs[rs.Reg] = h
		}
		g.mu.Unlock()
		if r, ok := h.(*object.Regular); ok {
			r.Restore(object.RegularSnapshot{TS: rs.TS, History: rs.History, TSR: rs.TSR})
		}
	}
}

// Forget drops every register automaton — the amnesia wipe
// (recovery.StateStore). Fresh automata grow back through the factory.
func (g *registry) Forget() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.regs = make(map[string]transport.Handler)
}
