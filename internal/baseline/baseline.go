// Package baseline implements the comparison protocols the paper's
// introduction positions its contribution against:
//
//   - ABD: the crash-only (b = 0) register of Attiya, Bar-Noy & Dolev
//     [3] with S = 2t+1 — one-round writes; one-round regular reads or
//     two-round atomic reads (read + write-back).
//   - MultiRound: a safe storage at optimal resilience S = 2t+b+1 whose
//     readers do not modify object state and therefore need up to b+1
//     read rounds in the worst case — the regime of [1] that the paper's
//     2-round reader beats.
//   - Auth: the authenticated (self-verifying data) regular storage of
//     Malkhi & Reiter [15]: ed25519-signed pairs, S = 2t+b+1, one-round
//     writes and one-round reads. The paper's point of comparison for
//     "if we permit data authentication" (§1).
//   - FastSafe: an unauthenticated safe storage using S = 2t+2b+1
//     objects — one more than the Proposition 1 threshold — with
//     one-round writes and (contention-free) one-round reads, showing
//     the resilience/latency trade-off exactly at the bound.
//
// Every baseline client is an automaton on the one driver of
// internal/core (core.Client.Run), so the comparison rows count rounds,
// messages and acknowledgements exactly as the paper's own clients do.
// The single-field registers (ABD, Auth, FastSafe) share one one-round
// Writer — as do the §6 push model and the Proposition 1 candidates —
// and every READ is one Reader that differs only in its decision rule
// over the objects' reports (see Reports).
package baseline

import (
	"context"
	"sync"

	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Object is the single-pair base object of the ABD, Auth and FastSafe
// baselines: it stores the highest-timestamped pair it has seen (with
// its signature, if any) and returns it to readers.
type Object struct {
	id types.ObjectID

	mu  sync.Mutex
	ts  types.TS
	val types.Value
	sig []byte
}

var _ transport.Handler = (*Object)(nil)

// NewObject returns an empty baseline object.
func NewObject(id types.ObjectID) *Object { return &Object{id: id} }

// Handle processes writes (adopt-if-newer) and reads (return current).
func (o *Object) Handle(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch m := req.(type) {
	case wire.BaselineWriteReq:
		if m.TS > o.ts {
			o.ts = m.TS
			o.val = m.Val.Clone()
			o.sig = append([]byte(nil), m.Sig...)
		}
		return wire.BaselineWriteAck{ObjectID: o.id, TS: m.TS}, true
	case wire.BaselineReadReq:
		return wire.BaselineReadAck{
			ObjectID: o.id,
			Attempt:  m.Attempt,
			TS:       o.ts,
			Val:      o.val.Clone(),
			Sig:      append([]byte(nil), o.sig...),
		}, true
	default:
		return nil, false
	}
}

// TwoFieldObject is the pw/w base object of the MultiRound baseline: the
// writer pre-writes into pw and commits into w (the two-round write of
// [1]); readers query both fields without modifying anything.
type TwoFieldObject struct {
	id types.ObjectID

	mu sync.Mutex
	pw types.TSVal
	w  types.TSVal
}

var _ transport.Handler = (*TwoFieldObject)(nil)

// NewTwoFieldObject returns an object holding ⟨0,⊥⟩ in both fields.
func NewTwoFieldObject(id types.ObjectID) *TwoFieldObject {
	return &TwoFieldObject{id: id, pw: types.InitTSVal(), w: types.InitTSVal()}
}

// Handle processes PW (pre-write), W (commit) and non-mutating reads.
func (o *TwoFieldObject) Handle(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch m := req.(type) {
	case wire.PWReq:
		if m.TS > o.pw.TS {
			o.pw = m.PW.Clone()
		}
		return wire.PWAck{ObjectID: o.id, TS: m.TS}, true
	case wire.WReq:
		if m.TS > o.w.TS {
			o.w = m.PW.Clone()
		}
		return wire.WAck{ObjectID: o.id, TS: m.TS}, true
	case wire.BaselineReadReq:
		return wire.PairsReadAck{
			ObjectID: o.id,
			Attempt:  m.Attempt,
			PW:       o.pw.Clone(),
			W:        o.w.Clone(),
		}, true
	default:
		return nil, false
	}
}

// Writer is the one-round writer of every single-field register here
// and of the push model and the Proposition 1 candidates: broadcast
// ⟨ts, v⟩ (signed for Auth) and await S−t distinct acknowledgements.
type Writer struct {
	core.Client
	keys *AuthKeys // Auth: sign every pair
	ts   types.TS
}

// NewWriter returns the one-round writer. It does not validate cfg: ABD
// runs at S = 2t+1 whatever b is.
func NewWriter(cfg quorum.Config, conn transport.Conn) *Writer {
	return &Writer{Client: core.NewClient(cfg, conn)}
}

// Write stores v: one round.
func (w *Writer) Write(ctx context.Context, v types.Value) error {
	w.ts++
	req := wire.BaselineWriteReq{TS: w.ts, Val: v.Clone()}
	if w.keys != nil {
		req.Sig = w.keys.Sign(w.ts, v)
	}
	return w.Run(ctx, core.OpWrite, &writeOp{req: req, acks: newAcks(w.Cfg(), w.ts)})
}

// writeOp is one WRITE: the request's round, until S−t objects acked.
type writeOp struct {
	core.Op
	req wire.BaselineWriteReq
	acks
}

func (a *writeOp) Start() wire.Msg {
	a.TS = a.req.TS
	return a.req
}

func (a *writeOp) Step(m transport.Message) (wire.Msg, bool) {
	ack, ok := m.Payload.(wire.BaselineWriteAck)
	return nil, ok && a.add(&a.Op, 1, m, ack.ObjectID, ack.TS)
}

// acks collects the acknowledgements of timestamp ts in one round, each
// counted once and only from the object that sent it.
type acks struct {
	ts    types.TS
	q     int
	acked []bool
	n     int
}

func newAcks(cfg quorum.Config, ts types.TS) acks {
	return acks{ts: ts, q: cfg.RoundQuorum(), acked: make([]bool, cfg.S)}
}

// add counts the acknowledgement of ts that m carries from object id and
// reports whether S−t distinct objects have now acknowledged.
func (c *acks) add(o *core.Op, round int, m transport.Message, id types.ObjectID, ts types.TS) bool {
	if ts != c.ts || !core.FromObject(m, id, len(c.acked)) || c.acked[id] {
		return false
	}
	c.acked[id] = true
	c.n++
	o.Ack(round, id)
	return c.n >= c.q
}
