// Package wire defines the messages exchanged between clients and base
// objects in the protocols of Guerraoui & Vukolić (PODC 2006): the
// writer's PW and W round messages (Fig. 2), the reader's READ1/READ2
// round messages (Figs. 4 and 6), and the corresponding acknowledgements
// from objects (Figs. 3 and 5).
//
// The same message set serves the safe protocol, the regular protocol
// (history-carrying acks), the baselines, and the server-centric
// extension. Messages are plain data with one serialization, the
// compact codec of binary.go, which the TCP transport frames with and
// every byte-volume figure (internal/stats, E7, E8) is measured in.
//
// The message set is closed and the compiler holds it: Msg's methods,
// clone and encode, are unexported, so only this package's types are
// messages, and a type missing either is not a Msg — every use of it as
// one fails to compile. Adding a message means its two methods, a tag
// below tagEnd with a decode arm in binary.go, and an entry in the
// tests' sampleMsgs; TestEveryTagRoundTrips fails on a tag without a
// decode arm or a sample.
package wire

import (
	"slices"

	"repro/internal/types"
)

// Msg is any protocol message payload.
type Msg interface {
	clone() Msg    // a deep copy (see Clone)
	encode(e *enc) // append the tagged compact encoding (binary.go)
}

// Round identifies a read round: 1 for READ1, 2 for READ2.
type Round int

// Read rounds.
const (
	Round1 Round = 1
	Round2 Round = 2
)

// PWReq is the writer's first-round message PW⟨ts, pw, w⟩: it writes the
// new pw pair (and re-writes the previous complete tuple w) and reads
// back the object's reader-timestamp vector.
type PWReq struct {
	TS types.TS
	PW types.TSVal
	W  types.WTuple
}

// PWAck is the object's PW_ACK⟨ts, tsr⟩ reply carrying its per-reader
// timestamp vector, which the writer folds into currenttsrarray.
type PWAck struct {
	ObjectID types.ObjectID
	TS       types.TS
	TSR      types.TSRVector
}

// WReq is the writer's second-round message W⟨ts, pw, w⟩ installing the
// complete tuple w = ⟨pw, currenttsrarray⟩.
type WReq struct {
	TS types.TS
	PW types.TSVal
	W  types.WTuple
}

// WAck is the object's WRITE_ACK⟨ts⟩ reply.
type WAck struct {
	ObjectID types.ObjectID
	TS       types.TS
}

// ReadReq is the reader's READk⟨tsr′⟩ message. Readers store their fresh
// timestamp into the object's tsr[j] field in both rounds. CacheTS
// implements the §5.1 optimization for the regular protocol: objects
// ship only the history suffix at or above CacheTS. Safe-protocol
// readers leave CacheTS at zero.
//
// Repair is the read-repair hint piggybacked on round 2 of a slow-path
// read: when round 1 revealed divergent replicas, the reader attaches
// the dominant complete tuple so lagging members converge without
// waiting for the writer's next op. Objects apply it exactly like a
// WReq install (timestamp-dominant, so a stale hint is a no-op), and
// only tuples vouched for by b+1 byte-identical round-1 replies are
// ever attached — at least one honest object stored that exact tuple,
// so a Byzantine object cannot launder a forged tuple through an
// honest reader. nil (the common case) costs one presence byte on the
// wire.
type ReadReq struct {
	Round   Round
	Reader  types.ReaderID
	TSR     types.ReaderTS
	CacheTS types.TS
	Repair  *types.WTuple
}

// ReadAck is the safe object's READk_ACK⟨tsr[j], pw, w⟩ reply (Fig. 3).
type ReadAck struct {
	ObjectID types.ObjectID
	Round    Round
	TSR      types.ReaderTS
	PW       types.TSVal
	W        types.WTuple
}

// ReadAckHist is the regular object's READk_ACK⟨tsr[j], history⟩ reply
// (Fig. 5), carrying the write history (possibly a suffix under §5.1).
type ReadAckHist struct {
	ObjectID types.ObjectID
	Round    Round
	TSR      types.ReaderTS
	History  types.History
}

// Baseline messages -------------------------------------------------------

// BaselineWriteReq is the single-round write of the ABD, authenticated
// and fast-read baselines: store ⟨ts, v⟩ if newer. Sig carries the
// writer's signature for the authenticated baseline and is empty
// otherwise.
type BaselineWriteReq struct {
	TS  types.TS
	Val types.Value
	Sig []byte
}

// BaselineWriteAck acknowledges a BaselineWriteReq.
type BaselineWriteAck struct {
	ObjectID types.ObjectID
	TS       types.TS
}

// BaselineReadReq asks an object for its current pair. Attempt
// distinguishes successive rounds of multi-round baseline reads.
type BaselineReadReq struct {
	Attempt int
	Reader  types.ReaderID
}

// BaselineReadAck returns the object's current pair (with signature for
// the authenticated baseline).
type BaselineReadAck struct {
	ObjectID types.ObjectID
	Attempt  int
	TS       types.TS
	Val      types.Value
	Sig      []byte
}

// PairsReadAck returns both fields of a two-field (pw/w) baseline object
// to a non-mutating reader: the b+1-round baseline of [1].
type PairsReadAck struct {
	ObjectID types.ObjectID
	Attempt  int
	PW       types.TSVal
	W        types.TSVal
}

// Multi-register and batching frames --------------------------------------

// RegOp is the one frame header: it addresses a protocol message to
// one named register of a multi-register base object and carries
// everything the layers around the protocol stamp on a frame. The
// sharded store (internal/store) keeps one independent register
// automaton per key on every base object and demultiplexes on Reg; the
// wrapped Msg is any of the single-register messages above, unchanged.
//
// Op is the distributed trace context: the client mux stamps requests
// with the op's trace ID (obs.Tracer.NewOp) and servers echo it on the
// reply, so every hop — object serve, batch coalesce, fault verdict —
// can attribute its events to the client operation that caused them.
// Zero means untraced (telemetry off, or traffic that predates the op
// bind); every layer treats 0 as "no trace context" and emits nothing.
//
// Inc is the incarnation stamp of a recovery-enabled base object
// (recovery.Guard sets it on every reply): an amnesia restart bumps the
// incarnation, clients track the highest one seen per object and reject
// replies from earlier ones — a zombie reply that left the object
// before its crash reflects state the object no longer holds and must
// not count toward a quorum.
//
// Cfg is the request-side configuration epoch — the monotonically
// increasing version of the shard's member list (which logical object
// slot lives at which transport address) the client mux believes in.
// Base objects (membership.Gate) answer a request from a stale
// configuration with a ConfigUpdate redirect instead of serving it, so
// a lagging client self-heals in one extra round-trip. Replies carry no
// configuration stamp: clients decide by the member list which replies
// may count toward quorums — a reply from an address evicted by
// reconfiguration never does, and a surviving member's register state
// is continuous across a flip.
//
// The two stamps share the eight bytes that keep the header inside the
// allocator's 48-byte size class — RegOp is boxed into a Msg some 25
// times per store operation.
type RegOp struct {
	Reg string
	Op  uint64
	Msg Msg
	Inc Stamp
	Cfg Stamp
}

// Stamp is an optional header counter. The zero value means "not
// stamped" — distinct from a stamped 0, which is what lets a gate tell
// a client at configuration epoch 0 from one that never enabled
// membership. Counters (incarnations, configuration epochs) advance by
// one per restart or reconfiguration and stay far below the 2³²−2 a
// Stamp can hold.
type Stamp uint32

// StampOf returns the stamp carrying v.
func StampOf(v int64) Stamp { return Stamp(v) + 1 }

// Get returns the stamped value and whether there is one.
func (s Stamp) Get() (int64, bool) { return int64(s) - 1, s != 0 }

// OpIDs appends to acc the trace operation IDs a frame carries: those
// of its traced RegOps (a bare one, or the ops of a Batch) or of the
// ops a Busy notice bounces. Untraced ops (Op == 0) are skipped. The
// fault and transport layers use it to attribute a drop/delay/busy
// verdict to the victim ops. It is a deliberately partial view over
// the message set: leaf messages carry no trace context.
func OpIDs(msg Msg, acc []uint64) []uint64 {
	if v, ok := msg.(RegOp); ok && v.Op != 0 {
		return append(acc, v.Op)
	}
	if v, ok := msg.(Batch); ok {
		for _, op := range v.Ops {
			if ro, ok := op.(RegOp); ok && ro.Op != 0 {
				acc = append(acc, ro.Op)
			}
		}
	}
	if v, ok := msg.(Busy); ok {
		for _, ref := range v.Ops {
			if ref.Op != 0 {
				acc = append(acc, ref.Op)
			}
		}
	}
	return acc
}

// Batch is the multi-op frame of the batched transport hot path: a
// length-prefixed sequence of independent protocol messages (typically
// RegOps for distinct registers) coalesced into a single network frame
// because they were concurrently in flight between the same client and
// the same base object. Objects process the ops in order and reply with
// a Batch of the produced acknowledgements.
type Batch struct {
	Ops []Msg
}

// Recovery (amnesia catch-up) messages ------------------------------------

// StateReq is the catch-up query a recovering base object broadcasts to
// its shard siblings (acting as a client — base objects never talk to
// each other in the data-centric model, so the recovery manager speaks
// through its own transport endpoint). Seq correlates responses with
// the catch-up attempt that solicited them; duplicated or reordered
// responses from an earlier attempt are discarded by Seq.
type StateReq struct {
	Seq       int64
	Requester types.ObjectID
}

// StateResp is a sibling's reply: its incarnation and a snapshot of
// every register automaton it hosts. A fenced (itself recovering)
// object does not answer; Byzantine objects in this repository stay
// silent too (they forge protocol replies, not recovery donations —
// hardening catch-up against Byzantine state donors is an open item).
type StateResp struct {
	ObjectID    types.ObjectID
	Seq         int64
	Incarnation int64
	Regs        []RegState
}

// RegState is one register's transferable volatile state: exactly the
// regular object's Snapshot/Restore surface (timestamp, write history,
// per-reader timestamp vector).
type RegState struct {
	Reg     string
	TS      types.TS
	History types.History
	TSR     types.TSRVector
}

// Clone deep-copies the register state.
func (rs RegState) Clone() RegState {
	return RegState{Reg: rs.Reg, TS: rs.TS, History: rs.History.Clone(), TSR: rs.TSR.Clone()}
}

// Flow control (overload pushback) messages --------------------------------

// Busy is the pushback notice of the flow-control layer: an overloaded
// hop — a base object whose bounded request queue is full, or the
// client-side batch layer at its pending budget — answers a request
// with Busy instead of queueing it without bound. The notice names each
// rejected op by register and trace ID (a bounced Batch rejects every
// op inside) and nothing else, so bouncing a large write costs a few
// bytes, not its value. The client mux treats the sender as a
// transiently slow object: the protocols need only S−t replies per
// round, so the mux sheds the slow member from subsequent broadcasts
// and re-drives the rejected op with a delayed hedge instead of
// blocking. Busy is advisory — losing one costs nothing, because the
// straggler hedge is timer-driven.
type Busy struct {
	Ops []OpRef
}

// OpRef names one bounced op: its register ("" for a request without a
// register header) and its trace ID (0 = untraced).
type OpRef struct {
	Reg string
	Op  uint64
}

// BusyFor builds the notice that bounces req: one OpRef per protocol op
// it carries (the ops of a Batch, else req itself).
func BusyFor(req Msg) Busy {
	ops := []Msg{req}
	if batch, ok := req.(Batch); ok {
		ops = batch.Ops
	}
	refs := make([]OpRef, len(ops))
	for i, op := range ops {
		ro, _ := op.(RegOp)
		refs[i] = OpRef{Reg: ro.Reg, Op: ro.Op}
	}
	return Busy{Ops: refs}
}

// Membership (reconfiguration) messages -----------------------------------

// ConfigUpdate is the redirect frame of the reconfiguration protocol: a
// member of configuration Epoch answers a request stamped with an older
// epoch with the signed-off member list of the current one. Members[i]
// is the physical transport index (transport.Object(Members[i])) of
// logical slot i; Sig authenticates the (Shard, Epoch, Members) triple
// under the deployment's membership key, so a Byzantine object cannot
// hijack clients onto a forged configuration — at worst it can replay an
// old signed update, which the client's monotonic epoch check discards.
type ConfigUpdate struct {
	Shard   int64
	Epoch   int64
	Members []int64
	Sig     []byte
}

// Clone deep-copies the update.
func (cu ConfigUpdate) Clone() ConfigUpdate {
	return ConfigUpdate{
		Shard:   cu.Shard,
		Epoch:   cu.Epoch,
		Members: append([]int64(nil), cu.Members...),
		Sig:     append([]byte(nil), cu.Sig...),
	}
}

// Server-centric messages -------------------------------------------------

// SubscribeReq is a reader's single push-model message (§6): the reader
// announces a read and servers push state until it can decide.
type SubscribeReq struct {
	Reader types.ReaderID
	Seq    int64
}

// PushState is an unsolicited server→client or server→server message in
// the server-centric model carrying the server's current pair.
type PushState struct {
	ObjectID types.ObjectID
	Seq      int64
	TS       types.TS
	Val      types.Value
	Echo     bool // true when relayed between servers
}

// Clone deep-copies a message so transports can hand independent copies
// to receivers. Byzantine handlers receive clones and cannot mutate
// honest state through shared slices or maps. Clone(nil) is nil.
func Clone(m Msg) Msg {
	if m == nil {
		return nil
	}
	return m.clone()
}

// The message clones: plain fields copy with the receiver; each slice,
// map and pointer field is replaced by a deep copy. A pw equal to the
// pair of the tuple beside it shares that tuple's copy, as on decode.

func (v PWReq) clone() Msg            { v.PW, v.W = types.ClonePWAndW(v.PW, v.W); return v }
func (v PWAck) clone() Msg            { v.TSR = v.TSR.Clone(); return v }
func (v WReq) clone() Msg             { v.PW, v.W = types.ClonePWAndW(v.PW, v.W); return v }
func (v WAck) clone() Msg             { return v }
func (v ReadAck) clone() Msg          { v.PW, v.W = types.ClonePWAndW(v.PW, v.W); return v }
func (v ReadAckHist) clone() Msg      { v.History = v.History.Clone(); return v }
func (v BaselineWriteReq) clone() Msg { v.Val, v.Sig = v.Val.Clone(), slices.Clone(v.Sig); return v }
func (v BaselineWriteAck) clone() Msg { return v }
func (v BaselineReadReq) clone() Msg  { return v }
func (v BaselineReadAck) clone() Msg  { v.Val, v.Sig = v.Val.Clone(), slices.Clone(v.Sig); return v }
func (v PairsReadAck) clone() Msg     { v.PW, v.W = v.PW.Clone(), v.W.Clone(); return v }
func (v SubscribeReq) clone() Msg     { return v }
func (v PushState) clone() Msg        { v.Val = v.Val.Clone(); return v }
func (v RegOp) clone() Msg            { v.Msg = Clone(v.Msg); return v }
func (v StateReq) clone() Msg         { return v }
func (v ConfigUpdate) clone() Msg     { return v.Clone() }
func (v Busy) clone() Msg             { v.Ops = slices.Clone(v.Ops); return v }

func (v ReadReq) clone() Msg {
	if v.Repair != nil {
		rep := v.Repair.Clone()
		v.Repair = &rep
	}
	return v
}

func (v Batch) clone() Msg {
	ops := make([]Msg, len(v.Ops))
	for i, op := range v.Ops {
		ops[i] = Clone(op)
	}
	return Batch{Ops: ops}
}

func (v StateResp) clone() Msg {
	regs := make([]RegState, len(v.Regs))
	for i, rs := range v.Regs {
		regs[i] = rs.Clone()
	}
	v.Regs = regs
	return v
}
