// Package recovery is the amnesia catch-up subsystem: it lets a base
// object that restarts with EMPTY volatile state (crash-recovery
// without stable storage) rebuild its registers from a quorum of shard
// siblings and rejoin the read/write quorums, instead of permanently
// counting against the fault budget t.
//
// The paper's model (§2) assumes a faulty base object either stays down
// or comes back with its state intact; real deployments restart with
// amnesia. The standard cure (cf. the crash-recovery treatments in
// Aspnes's distributed-systems notes) is a state-transfer protocol run
// BEFORE the object resumes serving:
//
//  1. An amnesia restart wipes the object's registers and bumps its
//     incarnation epoch (Guard.Forget, driven by the transport's
//     RestartAmnesia). The object is now FENCED: it answers no protocol
//     message, so clients — who proceed with any S−t replies — simply
//     stop counting it toward quorums.
//  2. The object's Manager broadcasts wire.StateReq to every sibling
//     over its own client endpoint (base objects never talk to each
//     other in the data-centric model, so recovery speaks through a
//     transport.Recovery endpoint) and collects wire.StateResp
//     snapshots until Policy.Quorum distinct siblings have answered.
//  3. The responses are merged timestamp-dominantly per register
//     (Dominant) and installed atomically (Guard.Install); only then is
//     the fence lifted and the object serves again — stamping every
//     reply with its new incarnation so stragglers from the previous
//     life are rejected as stale.
//
// Freshness argument: a completed write occupies a quorum of S−t =
// t+b+1 objects. Any Policy.Quorum = t+b+1 responses out of the 2t+b
// siblings intersect that write quorum (minus the recovering object
// itself, ≥ t+b members) in at least one HONEST object, whose snapshot
// timestamp-dominates the write; the regular object's PW rule keeps the
// previous write's complete tuple in history[ts−1], so the dominant
// donor state always contains the latest completed write. Installing a
// fresh honest state is always safe — it is indistinguishable from the
// object having received exactly those protocol messages itself.
//
// Availability: with Faulty + Byzantine ≤ t and the recovering object
// inside the faulty set, at least S−1−(Faulty−1)−Byz ≥ t+b+1 honest
// siblings are permanently up, so a catch-up always completes. In this
// repository Byzantine objects do not answer StateReq (they forge
// protocol replies, not recovery donations); deployments that admit
// LYING donors can enable Policy.CrossValidate, which installs a
// history row or reader-timestamp entry only when b+1 distinct donors
// agree on it byte for byte (Validated) — a forged donation can never
// gather b+1 vouchers. See Policy.CrossValidate for the quorum-size
// conditions under which every completed write keeps its b+1 honest
// vouchers too.
//
// The membership subsystem (internal/membership, internal/store)
// reuses this protocol for live replacement: a replacement object is an
// amnesia recovery at a new address, catching up from an explicit donor
// list — the members of the OLD configuration — rather than a fixed
// sibling set, which is why Manager's donor set is updatable
// (SetSiblings) and keyed by transport endpoint rather than object
// index.
package recovery

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Policy is the deployment's recovery configuration (store.Options
// carries one; the zero value selects every default).
type Policy struct {
	// Quorum is how many distinct sibling snapshots a catch-up collects
	// before installing state. Zero selects t+b+1 — always reachable
	// within the fault budget, and enough for the dominant merge to
	// contain the latest completed write (see the package comment).
	Quorum int
	// Retry is the re-broadcast interval for catch-up queries whose
	// responses are lost or delayed in transit. Zero selects 25ms.
	Retry time.Duration
	// CrossValidate hardens catch-up against Byzantine state donors:
	// instead of trusting the timestamp-dominant merge blindly, every
	// history row and reader-timestamp entry is installed only when
	// Vouchers distinct donors agree on it byte for byte (Validated), so
	// a lying donor can never smuggle a forged row or an inflated
	// timestamp into the recovering object — integrity holds
	// unconditionally. Freshness is conditional on the quorum: a
	// completed write occupies t+b+1 of the 2t+b siblings, so Quorum
	// collected donations intersect its holders in Quorum−(t−1)−b
	// entries — at the default Quorum = t+b+1 that is b+1 copies, all
	// honest when Byzantine objects are donation-silent (this
	// repository's adversary: they forge protocol replies, not
	// StateResp), so every completed write stays vouchable. Against
	// donors that ANSWER and selectively omit rows, b of those b+1
	// copies may be withheld; raise Quorum to t+2b+1 to guarantee b+1
	// honest copies of every completed write regardless — collectible
	// out of the 2t+b siblings when b < t, BECAUSE in that threat model
	// the liars answer and count toward collection. (A deployment whose
	// Byzantine objects are donation-silent, like internal/store's,
	// neither needs nor can collect the larger quorum — Open's
	// honest-donor check will say so.) Off by default; Vouchers must
	// not exceed Quorum or no entry could ever be vouched
	// (internal/store's Open rejects that).
	CrossValidate bool
	// Vouchers is the agreement threshold of CrossValidate. Zero selects
	// b+1: more agreeing donors than there are possible liars.
	Vouchers int
}

// WithDefaults fills zero fields for a shard with fault budgets t, b.
func (p Policy) WithDefaults(t, b int) Policy {
	if p.Quorum <= 0 {
		p.Quorum = t + b + 1
	}
	if p.Retry <= 0 {
		p.Retry = 25 * time.Millisecond
	}
	if p.CrossValidate && p.Vouchers <= 0 {
		p.Vouchers = b + 1
	}
	return p
}

// Stats counts recovery activity (Store.RecoveryStats aggregates it).
type Stats struct {
	CatchUps     int64 // completed catch-ups (state installed, fence lifted)
	RegsRestored int64 // registers installed across all catch-ups
	Superseded   int64 // catch-up attempts abandoned by a newer amnesia crash
}

// Add returns the fieldwise sum.
func (s Stats) Add(o Stats) Stats {
	return Stats{
		CatchUps:     s.CatchUps + o.CatchUps,
		RegsRestored: s.RegsRestored + o.RegsRestored,
		Superseded:   s.Superseded + o.Superseded,
	}
}

// StateStore is the volatile register state of one multi-register base
// object — the surface the catch-up protocol snapshots, wipes, and
// restores. internal/store's registry implements it over
// object.Regular's Snapshot/Restore hooks.
type StateStore interface {
	// SnapshotRegs deep-copies every register's state.
	SnapshotRegs() []wire.RegState
	// RestoreRegs overwrites (or creates) the named registers with the
	// given states, deep-copying its input.
	RestoreRegs(regs []wire.RegState)
	// Forget wipes every register.
	Forget()
}

// Guard wraps a base object's handler with the recovery automaton:
// incarnation epochs on every reply, the catch-up fence, and StateReq
// service for recovering peers. It implements transport.Handler and
// transport.Amnesiac, so the transports' RestartAmnesia reaches Forget
// through any wrapping (batching included).
type Guard struct {
	id    types.ObjectID
	store StateStore
	inner transport.Handler

	mu     sync.Mutex
	inc    int64
	fenced bool

	wake chan struct{} // signals the Manager that a catch-up is due
}

var (
	_ transport.Handler  = (*Guard)(nil)
	_ transport.Amnesiac = (*Guard)(nil)
)

// NewGuard wraps inner (the object's protocol handler) and store (its
// register state, typically the same value) for object id.
func NewGuard(id types.ObjectID, store StateStore, inner transport.Handler) *Guard {
	return &Guard{id: id, store: store, inner: inner, wake: make(chan struct{}, 1)}
}

// ID returns the guarded object's index.
func (g *Guard) ID() types.ObjectID { return g.id }

// Incarnation returns the current epoch (bumped by every amnesia wipe).
func (g *Guard) Incarnation() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inc
}

// Fenced reports whether the object is excluded from quorums pending
// catch-up.
func (g *Guard) Fenced() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.fenced
}

// Wake is the channel the owning Manager selects on; it fires (capacity
// one, coalescing) after every Forget.
func (g *Guard) Wake() <-chan struct{} { return g.wake }

// Handle implements the recovery automaton around the inner handler:
//
//   - fenced: answer nothing — neither protocol messages (the fence
//     that keeps a stale object out of quorums) nor StateReq (an
//     amnesiac object has no state to donate);
//   - StateReq: donate a snapshot of every register, tagged with the
//     current incarnation;
//   - anything else: delegate to the inner handler and stamp the reply
//     header with the current incarnation (wire.RegOp.Inc), so replies
//     minted in a previous life are recognizably stale.
func (g *Guard) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	g.mu.Lock()
	if g.fenced {
		g.mu.Unlock()
		return nil, false
	}
	inc := g.inc
	g.mu.Unlock()
	var reply wire.Msg
	if m, ok := req.(wire.StateReq); ok {
		reply = wire.StateResp{ObjectID: g.id, Seq: m.Seq, Incarnation: inc, Regs: g.store.SnapshotRegs()}
	} else {
		if reply, ok = g.inner.Handle(from, req); !ok {
			return nil, false
		}
		if op, isOp := reply.(wire.RegOp); isOp {
			op.Inc = wire.StampOf(inc)
			reply = op
		}
	}
	// A Forget can race the computation above: the reply would then be
	// derived from (partially) wiped state yet stamped with the
	// pre-crash incarnation — which clients still accept, because the
	// object has not served anything at the new incarnation yet.
	// Re-check under the lock and suppress the reply if the life it was
	// minted in is over; the request is simply never answered, which the
	// asynchronous model already permits.
	g.mu.Lock()
	superseded := g.inc != inc || g.fenced
	g.mu.Unlock()
	if superseded {
		return nil, false
	}
	return reply, true
}

// Forget is the amnesia restart: bump the incarnation, raise the fence,
// wipe the registers, and wake the Manager. Safe to call concurrently
// with Handle — a reply computed across the wipe is suppressed by
// Handle's post-computation incarnation re-check, and a reply already
// on the wire carries its pre-crash incarnation and reflects genuine
// pre-crash state (clients reject it only once the recovered object
// has served at the new incarnation — the wire.RegOp.Inc fencing).
func (g *Guard) Forget() {
	g.mu.Lock()
	g.inc++
	g.fenced = true
	g.mu.Unlock()
	g.store.Forget()
	select {
	case g.wake <- struct{}{}:
	default:
	}
}

// Install commits a merged catch-up state and lifts the fence, provided
// the object is still in the incarnation the catch-up was collected
// for; a newer amnesia crash supersedes the attempt (returns false) and
// the Manager starts over. A non-nil committed runs under the guard
// lock after the state lands but BEFORE the fence lifts, so bookkeeping
// (the Manager's counters) is already visible when observers see the
// object recovered.
func (g *Guard) Install(regs []wire.RegState, inc int64, committed func()) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.inc != inc || !g.fenced {
		return false
	}
	g.store.RestoreRegs(regs)
	if committed != nil {
		committed()
	}
	g.fenced = false
	return true
}

// Dominant merges sibling snapshots timestamp-dominantly: per register,
// the snapshot with the highest timestamp wins (ties go to the longer
// history, then to the lower object index — a pure function of the
// response set, so concurrent recoveries converge). The result is
// sorted by register name for determinism.
func Dominant(resps []wire.StateResp) []wire.RegState {
	ordered := append([]wire.StateResp(nil), resps...)
	sort.Slice(ordered, func(a, b int) bool { return ordered[a].ObjectID < ordered[b].ObjectID })
	best := make(map[string]wire.RegState)
	for _, resp := range ordered {
		for _, rs := range resp.Regs {
			cur, seen := best[rs.Reg]
			if !seen || rs.TS > cur.TS || (rs.TS == cur.TS && len(rs.History) > len(cur.History)) {
				best[rs.Reg] = rs
			}
		}
	}
	out := make([]wire.RegState, 0, len(best))
	for _, rs := range best {
		out = append(out, rs)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Reg < out[b].Reg })
	return out
}

// Validated merges sibling snapshots with per-entry cross-validation:
// a history row is installed only when at least vouchers distinct
// donors present an identical copy, and each reader-timestamp entry is
// the largest value at least vouchers donors reach. With at most
// vouchers−1 lying donors, nothing forged survives — a fabricated row
// or an inflated timestamp can never gather vouchers agreeing copies.
// Completed writes survive when the collected quorum carries vouchers
// honest copies of them (see Policy.CrossValidate for the exact
// quorum-size conditions); the regular object's PW rule writes
// history[ts] and history[ts−1] together, so the vouched state always
// carries a complete tuple at its top timestamp or the one below — the
// automaton invariant Install relies on.
//
// The installed timestamp is the newest vouched row's; unvouched rows
// above it (a lone donor's in-flight pre-write, or a lie) are dropped,
// which is indistinguishable from the object never having received
// those messages. Like Dominant, the result is a pure function of the
// response set, sorted by register name.
func Validated(resps []wire.StateResp, vouchers int) []wire.RegState {
	if vouchers <= 1 {
		return Dominant(resps)
	}
	type rowVote struct {
		entry types.HistEntry
		count int
	}
	type regVotes struct {
		rows map[types.TS][]rowVote
		tsrs []types.TSRVector
	}
	regs := make(map[string]*regVotes)
	for _, resp := range resps {
		// One vote per donor per register: a lying donor listing the
		// same register twice in one donation must not stuff the ballot
		// with its own duplicates.
		voted := make(map[string]bool, len(resp.Regs))
		for _, rs := range resp.Regs {
			if voted[rs.Reg] {
				continue
			}
			voted[rs.Reg] = true
			rv := regs[rs.Reg]
			if rv == nil {
				rv = &regVotes{rows: make(map[types.TS][]rowVote)}
				regs[rs.Reg] = rv
			}
			for ts, entry := range rs.History {
				votes := rv.rows[ts]
				matched := false
				for i := range votes {
					if votes[i].entry.Equal(entry) {
						votes[i].count++
						matched = true
						break
					}
				}
				if !matched {
					votes = append(votes, rowVote{entry: entry.Clone(), count: 1})
				}
				rv.rows[ts] = votes
			}
			rv.tsrs = append(rv.tsrs, rs.TSR)
		}
	}
	out := make([]wire.RegState, 0, len(regs))
	for name, rv := range regs {
		st := wire.RegState{Reg: name, History: make(types.History)}
		for ts, votes := range rv.rows {
			for _, v := range votes {
				if v.count >= vouchers {
					st.History[ts] = v.entry
					if ts > st.TS {
						st.TS = ts
					}
					break
				}
			}
		}
		if len(st.History) == 0 {
			continue // no vouched row at all: the register stays unborn
		}
		// Per-reader vouched maximum: the vouchers-th largest value —
		// the highest timestamp at least vouchers donors reach, so a
		// single liar can neither inflate nor (with honest donors in the
		// majority) deflate it below something b+1 donors have seen.
		width := 0
		for _, v := range rv.tsrs {
			if len(v) > width {
				width = len(v)
			}
		}
		if width > 0 {
			st.TSR = types.NewTSRVector(width)
			column := make([]types.ReaderTS, 0, len(rv.tsrs))
			for j := 0; j < width; j++ {
				column = column[:0]
				for _, v := range rv.tsrs {
					if j < len(v) {
						column = append(column, v[j])
					}
				}
				sort.Slice(column, func(a, b int) bool { return column[a] > column[b] })
				if len(column) >= vouchers {
					st.TSR[j] = column[vouchers-1]
				}
			}
		}
		out = append(out, st)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Reg < out[b].Reg })
	return out
}

// Manager drives one object's catch-ups: it owns the object's recovery
// endpoint (transport.Recovery(id)) and, on every Guard wake, runs the
// state-transfer protocol to completion. Create with NewManager, stop
// with Close. The donor set is updatable (SetSiblings) so a
// reconfiguration can retarget catch-up at the members of a new
// configuration.
type Manager struct {
	guard  *Guard
	conn   transport.Conn
	policy Policy

	smu      sync.Mutex
	siblings []transport.NodeID

	seq                           atomic.Int64
	catchUps, regsRestored, stale atomic.Int64

	// trace, when set, records fence-wait/fence-lift events on the
	// deployment's op tracer (atomic: the store wires it after the run
	// loop is already live).
	trace atomic.Pointer[traceSink]

	closeOnce sync.Once
	done      chan struct{}
	finished  chan struct{}
}

// traceSink binds a tracer to the shard coordinate the events report.
type traceSink struct {
	tr    *obs.Tracer
	shard int
}

// SetTrace attaches the deployment's op tracer: every catch-up attempt
// becomes an op with a fence-wait event when the state transfer starts
// and a fence-lift event when the merged state installs (a superseded
// attempt gets no lift; the next attempt is a fresh op). Safe to call
// concurrently with a running catch-up.
func (m *Manager) SetTrace(tr *obs.Tracer, shard int) {
	if tr == nil {
		m.trace.Store(nil)
		return
	}
	m.trace.Store(&traceSink{tr: tr, shard: shard})
}

// NewManager starts the catch-up loop for guard. conn must be a client
// endpoint of the object's network (conventionally
// transport.Recovery(guard.ID())); siblings are the transport addresses
// of the objects that donate state — the shard's other base objects,
// or, for a replacement object, the members of the configuration being
// superseded. The policy should already carry deployment defaults
// (Policy.WithDefaults).
func NewManager(guard *Guard, conn transport.Conn, siblings []transport.NodeID, policy Policy) *Manager {
	m := &Manager{
		guard:    guard,
		conn:     conn,
		siblings: append([]transport.NodeID(nil), siblings...),
		policy:   policy,
		done:     make(chan struct{}),
		finished: make(chan struct{}),
	}
	go m.run()
	return m
}

// SetSiblings replaces the donor set — how a reconfiguration retargets
// future catch-ups at the members of the new configuration (an evicted
// address would never answer, and at small deployments the remaining
// old members alone cannot reach the quorum). A catch-up already in
// flight re-broadcasts to the new set on its next retry; donations
// already collected stay counted, which is safe — they were genuine
// member state when donated.
func (m *Manager) SetSiblings(siblings []transport.NodeID) {
	m.smu.Lock()
	defer m.smu.Unlock()
	m.siblings = append([]transport.NodeID(nil), siblings...)
}

// siblingSet snapshots the donor set.
func (m *Manager) siblingSet() []transport.NodeID {
	m.smu.Lock()
	defer m.smu.Unlock()
	return append([]transport.NodeID(nil), m.siblings...)
}

// Stats returns this manager's counters.
func (m *Manager) Stats() Stats {
	return Stats{
		CatchUps:     m.catchUps.Load(),
		RegsRestored: m.regsRestored.Load(),
		Superseded:   m.stale.Load(),
	}
}

// Recovering reports whether the guarded object is currently fenced.
func (m *Manager) Recovering() bool { return m.guard.Fenced() }

// Close stops the loop and releases the recovery endpoint. Idempotent
// and safe for concurrent use (Store.Close is a public API).
func (m *Manager) Close() error {
	m.closeOnce.Do(func() { close(m.done) })
	err := m.conn.Close()
	<-m.finished
	return err
}

// run services wake signals until Close (or the network) shuts the
// endpoint down.
func (m *Manager) run() {
	defer close(m.finished)
	for {
		select {
		case <-m.done:
			return
		case <-m.guard.Wake():
			if !m.catchUp() {
				return
			}
		}
	}
}

// catchUp runs one state transfer: broadcast StateReq, collect
// Policy.Quorum distinct sibling snapshots (re-broadcasting every
// Policy.Retry — responses may be delayed, duplicated, or lost while a
// sibling is inside its own fault window), merge dominantly, install.
// Returns false when the endpoint is closed (shutting down). A Forget
// racing the collection bumps the incarnation; the install is then
// rejected and the next wake signal redoes the transfer.
func (m *Manager) catchUp() bool {
	inc := m.guard.Incarnation()
	seq := m.seq.Add(1)
	var op uint64
	sink := m.trace.Load()
	if sink != nil {
		op = sink.tr.NewOp()
		sink.tr.Record(obs.Event{
			Op: op, Kind: obs.EvFenceWait, Shard: sink.shard,
			Member: int(m.guard.ID()),
			Detail: fmt.Sprintf("inc=%d quorum=%d", inc, m.policy.Quorum),
		})
	}
	req := wire.StateReq{Seq: seq, Requester: m.guard.ID()}
	// Donors are deduplicated by transport endpoint, not by claimed
	// object index: after a reconfiguration, distinct members may live
	// at addresses that no longer equal their logical slots, and a lying
	// donor must not be able to impersonate a second one by forging the
	// ObjectID field of its response.
	got := make(map[transport.NodeID]wire.StateResp)
	// Each (re-)broadcast queries only the siblings still missing from
	// the quorum: an already-counted donor would just re-snapshot and
	// re-ship its whole registry for the dedup map to discard. The donor
	// set is re-read every time so a reconfiguration mid-collection
	// retargets the remaining queries.
	broadcast := func() {
		for _, sib := range m.siblingSet() {
			if _, answered := got[sib]; !answered {
				m.conn.Send(sib, req)
			}
		}
	}
	broadcast()
	for len(got) < m.policy.Quorum {
		if m.guard.Incarnation() != inc {
			m.stale.Add(1)
			return true // superseded: the next wake redoes it
		}
		ctx, cancel := context.WithTimeout(context.Background(), m.policy.Retry)
		msg, err := m.conn.Recv(ctx)
		cancel()
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				broadcast()
				continue
			}
			return false // endpoint closed
		}
		resp, ok := msg.Payload.(wire.StateResp)
		if !ok || resp.Seq != seq {
			continue // stale attempt, duplicate, or foreign traffic
		}
		got[msg.From] = resp
	}
	resps := make([]wire.StateResp, 0, len(got))
	for _, resp := range got {
		resps = append(resps, resp)
	}
	var merged []wire.RegState
	if m.policy.CrossValidate {
		merged = Validated(resps, m.policy.Vouchers)
	} else {
		merged = Dominant(resps)
	}
	installed := m.guard.Install(merged, inc, func() {
		m.catchUps.Add(1)
		m.regsRestored.Add(int64(len(merged)))
	})
	if !installed {
		m.stale.Add(1)
	} else if sink != nil {
		sink.tr.Record(obs.Event{
			Op: op, Kind: obs.EvFenceLift, Shard: sink.shard,
			Member: int(m.guard.ID()),
			Detail: fmt.Sprintf("regs=%d", len(merged)),
		})
	}
	return true
}
