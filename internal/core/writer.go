package core

import (
	"context"
	"fmt"

	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Writer is the single writer of the SWMR storage (Fig. 2). Every WRITE
// takes exactly two rounds:
//
//   - PW: install the fresh pre-write pair ⟨ts, v⟩ (re-installing the
//     previous complete tuple alongside) and read back each responding
//     object's reader-timestamp vector;
//   - W: install the complete tuple ⟨⟨ts, v⟩, currenttsrarray⟩ built
//     from exactly S−t collected vectors.
//
// The same writer serves the safe and the regular storage: the object
// side decides whether to keep only the latest state (Fig. 3) or the
// history (Fig. 5).
//
// Writer is not safe for concurrent use; the model's single writer
// invokes one operation at a time.
type Writer struct {
	Client

	ts   types.TS
	last types.WTuple // the complete tuple of the previous write ("last copy of w′")

	// Pipelining state (SetPipelined): pending is the timestamp of the
	// write whose W (write-back) round has been broadcast but not yet
	// confirmed by S−t objects; 0 when no write-back is outstanding.
	pipelined bool
	pending   types.TS
}

// NewWriter returns the writer client for the given configuration.
func NewWriter(cfg quorum.Config, conn transport.Conn) (*Writer, error) {
	c, err := newClient(cfg, conn)
	if err != nil {
		return nil, err
	}
	return &Writer{Client: c, last: types.InitWTuple()}, nil
}

// TS returns the timestamp of the last completed write.
func (w *Writer) TS() types.TS { return w.ts }

// SetPipelined toggles write-round pipelining. When on, Write issues
// op N's write-back (W) broadcast without awaiting its acks: they are
// collected alongside op N+1's pre-write (PW) round, so the steady
// state awaits ONE round-trip per write instead of two.
//
// Why this is safe: PW⟨ts′, pw′, w′⟩ of op N+1 carries w′ = the
// complete tuple of op N, and both object types install w′ before
// acknowledging (Fig. 3 adopts w; Fig. 5 fills history[ts′−1]). A
// PW_ACK for op N+1 therefore certifies that the sender durably holds
// op N's write-back state — it is equivalent to a W_ACK for op N — so
// Write(N+1) returns only after op N's tuple is installed at S−t
// objects, exactly the postcondition of the unpipelined W round. The
// hedging layer preserves liveness for free: a straggler re-driven
// with PW(N+1) confirms N and contributes to N+1 with one reply.
//
// Flush completes the one write that has no successor, so a pipelined
// WRITE is regular only for readers that share the writer's store and
// its flush (the store flushes before each READ of the register); a
// reader that does not flush can miss a write that already returned.
// Per-writer timestamp order holds regardless: ts increments first.
func (w *Writer) SetPipelined(on bool) { w.pipelined = on }

// Pending returns the timestamp of the pipelined write whose
// write-back round is still unconfirmed (0 when none).
func (w *Writer) Pending() types.TS { return w.pending }

// Flush awaits W_ACKs from S−t objects for the pending pipelined
// write, completing its write-back round. No-op when nothing pends.
// Flush is not an operation of its own: it leaves LastStats and the
// tracer untouched.
func (w *Writer) Flush(ctx context.Context) error {
	if w.pending == 0 {
		return nil
	}
	a := &writeOp{Op: Op{st: OpStats{Kind: OpWrite}, trace: nopTracer{}}, w: w}
	if err := w.drive(ctx, a); err != nil {
		return fmt.Errorf("core: WRITE ts=%d flush: %w", w.pending, err)
	}
	return nil
}

// Write stores v in the register. It blocks until both rounds complete
// (wait-free given S−t correct objects) or ctx is cancelled; when
// pipelined, until the PW round completes.
func (w *Writer) Write(ctx context.Context, v types.Value) error {
	if v.IsBottom() {
		return fmt.Errorf("core: ⊥ is not a valid input value for WRITE")
	}
	return w.Run(ctx, OpWrite, &writeOp{w: w, v: v})
}

// writeOp is one WRITE as an automaton with two phases.
//
// PW phase: broadcast PW⟨ts, pw, w⟩ and fold PW_ACK⟨ts, tsr⟩ from
// exactly S−t distinct objects into currenttsrarray. Snapshotting at
// exactly S−t acks matters: the proofs of Lemmas 3 and 6 rely on the
// written matrix having exactly t+b+1 non-nil rows. The phase also
// certifies the write-back left pending by a pipelined predecessor
// N−1: PW(N) carried tuple(N−1), and both object types install it
// before acking, so each PW_ACK(N) doubles as a W_ACK(N−1); S−t of
// them leave tuple(N−1) at S−t objects, the unpipelined postcondition
// one op late. Early W_ACK(N−1)s count as well.
//
// W phase: broadcast W⟨ts, pw, ⟨pw, currenttsrarray⟩⟩, which is now
// pending, and collect W_ACKs from S−t objects. A pipelined WRITE
// returns right after the broadcast and leaves this phase to the next
// WRITE's PW phase or to Flush, which runs the W phase alone.
//
// Returning before the PW phase would be unsafe: a read starting after
// Write(N) returned could find tuple(N) installed nowhere. A pipelined
// Write(N) returns only after PW(N) completed at S−t objects, each of
// which durably holds pw(N); the embedding store's flush-before-read
// closes the last gap for the most recent write.
type writeOp struct {
	Op
	w     *Writer
	v     types.Value // nil for Flush
	pw    types.TSVal
	tsr   types.TSRMatrix // the PW phase's matrix; nil in the W phase
	acked objSet          // objects that confirmed w.pending
}

func (a *writeOp) Start() wire.Msg {
	w := a.w
	a.acked = make(objSet, w.cfg.RoundQuorum())
	if a.v == nil {
		return nil // Flush: the W phase alone
	}
	// inc(ts); pw := ⟨ts, v⟩; send PW⟨ts, pw, w⟩ to all.
	w.ts++
	a.TS = w.ts
	a.pw = types.TSVal{TS: w.ts, Val: a.v.Clone()} // the caller keeps v
	a.tsr = types.NewTSRMatrix()
	return wire.PWReq{TS: w.ts, PW: a.pw, W: w.last}
}

func (a *writeOp) Step(m transport.Message) (wire.Msg, bool) {
	w, q := a.w, a.w.cfg.RoundQuorum()
	switch ack := m.Payload.(type) {
	case wire.PWAck:
		if a.tsr == nil || ack.TS != w.ts || !FromObject(m, ack.ObjectID, w.cfg.S) {
			return nil, false
		}
		if _, dup := a.tsr[ack.ObjectID]; dup {
			return nil, false
		}
		if w.pending != 0 && !a.acked[ack.ObjectID] {
			a.acked.add(ack.ObjectID)
			a.trace.Ext(OpWrite, EvPipelinedAck, 1, ack.ObjectID, 0)
		}
		a.Ack(1, ack.ObjectID)
		a.tsr[ack.ObjectID] = ack.TSR
		if len(a.tsr) < q {
			return nil, false
		}
		// w := ⟨pw, currenttsrarray⟩; send W⟨ts, pw, w⟩ to all.
		w.last = types.WTuple{TSVal: a.pw, TSR: a.tsr}
		w.pending = w.ts
		a.tsr = nil
		clear(a.acked)
		a.unacked = w.pipelined
		return wire.WReq{TS: w.ts, PW: a.pw, W: w.last}, w.pipelined
	case wire.WAck:
		if w.pending == 0 || ack.TS != w.pending || !FromObject(m, ack.ObjectID, w.cfg.S) || a.acked[ack.ObjectID] {
			return nil, false
		}
		a.acked.add(ack.ObjectID)
		if a.tsr != nil {
			a.st.Acks++
			a.trace.Ext(OpWrite, EvPipelinedAck, 2, ack.ObjectID, 0)
			return nil, false
		}
		a.Ack(2, ack.ObjectID)
		if len(a.acked) < q {
			return nil, false
		}
		w.pending = 0
		return nil, true
	}
	return nil, false
}
