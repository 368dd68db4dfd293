package baseline

import (
	"context"

	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// MultiRoundWriter is the two-round pre-write/write of [1] over
// two-field objects at optimal resilience S = 2t+b+1: round one installs
// the pair in every object's pw field, round two commits it to w.
type MultiRoundWriter struct {
	core.Client
	ts types.TS
}

// NewMultiRoundWriter returns the writer client.
func NewMultiRoundWriter(cfg quorum.Config, conn transport.Conn) (*MultiRoundWriter, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &MultiRoundWriter{Client: core.NewClient(cfg, conn)}, nil
}

// Write pre-writes then commits v: two rounds.
func (w *MultiRoundWriter) Write(ctx context.Context, v types.Value) error {
	w.ts++
	pair := types.TSVal{TS: w.ts, Val: v.Clone()}
	return w.Run(ctx, core.OpWrite, &preWriteOp{pair: pair, pw: newAcks(w.Cfg(), w.ts), w: newAcks(w.Cfg(), w.ts)})
}

// preWriteOp is one WRITE: the PW round, then the W round, each until
// S−t objects acked.
type preWriteOp struct {
	core.Op
	pair  types.TSVal
	pw, w acks
	inW   bool // the PW round is complete
}

func (a *preWriteOp) Start() wire.Msg {
	a.TS = a.pair.TS
	return wire.PWReq{TS: a.pair.TS, PW: a.pair}
}

func (a *preWriteOp) Step(m transport.Message) (wire.Msg, bool) {
	switch ack := m.Payload.(type) {
	case wire.PWAck:
		if a.inW || !a.pw.add(&a.Op, 1, m, ack.ObjectID, ack.TS) {
			return nil, false
		}
		a.inW = true
		return wire.WReq{TS: a.pair.TS, PW: a.pair}, false
	case wire.WAck:
		return nil, a.inW && a.w.add(&a.Op, 2, m, ack.ObjectID, ack.TS)
	}
	return nil, false
}

// NewMultiRoundReader returns a safe reader that never modifies object
// state: the regime [1] proved needs b+1 rounds in the worst case with
// fewer than 2t+2b+1 objects, and the regime the paper's 2-round
// writing-reader escapes.
//
// Each round queries all objects and awaits a fresh S−t quorum,
// accumulating every object's latest report of both fields, and the
// READ decides by Reports.Decide: a candidate refuted by t+b+1 objects
// is skipped, and the highest one not refuted is returned once b+1
// objects support it. Safety holds unconditionally; Byzantine objects
// can only delay the decision by injecting high forgeries that take a
// round or more to refute, which is precisely the b+1-round worst case.
func NewMultiRoundReader(cfg quorum.Config, conn transport.Conn) (*Reader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rule := func(r *Reports) (types.TSVal, bool) { return r.Decide(cfg) }
	return &Reader{Client: core.NewClient(cfg, conn), decide: rule, twoField: true}, nil
}
