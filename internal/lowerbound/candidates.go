package lowerbound

import (
	"context"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// pairSnap is the forgeable state of a pairObject.
type pairSnap struct {
	TS  types.TS
	Val types.Value
	TSR types.TSRVector
}

// pairObject is the natural base object of one-round protocols: it
// stores the highest pair it has seen and, for the writing-reader
// candidate, the per-reader control timestamps.
type pairObject struct {
	mu  sync.Mutex
	id  types.ObjectID
	ts  types.TS
	val types.Value
	tsr types.TSRVector
}

func newPairObject(id types.ObjectID, readers int) *pairObject {
	return &pairObject{id: id, tsr: types.NewTSRVector(readers)}
}

// Handle adopts newer writes and answers reads with the current pair.
func (o *pairObject) Handle(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch m := req.(type) {
	case wire.BaselineWriteReq:
		if m.TS > o.ts {
			o.ts = m.TS
			o.val = m.Val.Clone()
		}
		return wire.BaselineWriteAck{ObjectID: o.id, TS: m.TS}, true
	case wire.BaselineReadReq:
		return wire.BaselineReadAck{ObjectID: o.id, Attempt: m.Attempt, TS: o.ts, Val: o.val.Clone()}, true
	case wire.ReadReq:
		// The writing-reader candidate stores the reader timestamp —
		// the state the Proposition 1 adversary forges.
		if int(m.Reader) >= 0 && int(m.Reader) < len(o.tsr) && m.TSR > o.tsr[m.Reader] {
			o.tsr[m.Reader] = m.TSR
		}
		return wire.ReadAck{
			ObjectID: o.id, Round: m.Round, TSR: m.TSR,
			PW: types.TSVal{TS: o.ts, Val: o.val.Clone()},
			W:  types.WTuple{TSVal: types.TSVal{TS: o.ts, Val: o.val.Clone()}, TSR: types.NewTSRMatrix()},
		}, true
	default:
		return nil, false
	}
}

// Snapshot returns the full forgeable state.
func (o *pairObject) Snapshot() any {
	o.mu.Lock()
	defer o.mu.Unlock()
	return pairSnap{TS: o.ts, Val: o.val.Clone(), TSR: o.tsr.Clone()}
}

// Restore adopts a forged state.
func (o *pairObject) Restore(s any) {
	snap, ok := s.(pairSnap)
	if !ok {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.ts = snap.TS
	o.val = snap.Val.Clone()
	o.tsr = snap.TSR.Clone()
}

// decisionRule maps the S−t collected acknowledgements to a value: the
// entire degree of freedom a one-round reader has.
type decisionRule func(cfg quorum.Config, acks *baseline.Reports) types.TSVal

// fastReader is a one-round reader: query all, collect exactly S−t
// acknowledgements, decide. It never waits for more — that is what
// makes it fast, and what Proposition 1 exploits.
type fastReader struct {
	core.Client
	rule    decisionRule
	writing bool
	attempt int
	tsr     types.ReaderTS
}

func (r *fastReader) Read(ctx context.Context) (types.TSVal, error) {
	a := &fastRead{r: r, acks: baseline.NewReports(r.Cfg().S)}
	if err := r.Run(ctx, core.OpRead, a); err != nil {
		return types.TSVal{}, err
	}
	return a.ret, nil
}

// fastRead is one READ of a fastReader.
type fastRead struct {
	core.Op
	r    *fastReader
	acks *baseline.Reports
	ret  types.TSVal
}

func (a *fastRead) Start() wire.Msg {
	r := a.r
	r.attempt++
	r.tsr++
	if r.writing {
		return wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: r.tsr}
	}
	return wire.BaselineReadReq{Attempt: r.attempt}
}

func (a *fastRead) Step(m transport.Message) (wire.Msg, bool) {
	var id types.ObjectID
	var pair types.TSVal
	switch ack := m.Payload.(type) {
	case wire.BaselineReadAck:
		if ack.Attempt != a.r.attempt {
			return nil, false
		}
		id, pair = ack.ObjectID, types.TSVal{TS: ack.TS, Val: ack.Val.Clone()}
	case wire.ReadAck:
		if ack.TSR != a.r.tsr {
			return nil, false
		}
		id, pair = ack.ObjectID, ack.PW.Clone()
	default:
		return nil, false
	}
	if !core.FromObject(m, id, a.r.Cfg().S) {
		return nil, false
	}
	a.Ack(1, id)
	a.acks.Put(id, pair, pair)
	if a.acks.Len() < a.r.Cfg().RoundQuorum() {
		return nil, false
	}
	a.ret = a.r.rule(a.r.Cfg(), a.acks)
	a.TS = a.ret.TS
	return nil, true
}

// trustHighest returns the highest-timestamped pair seen — the naive
// rule. It believes any single (possibly Byzantine) object, and run5
// catches it returning a value that was never written.
func trustHighest(_ quorum.Config, acks *baseline.Reports) types.TSVal { return acks.Highest() }

// requireSupport returns the highest pair reported identically by at
// least b+1 objects, and ⊥ otherwise — the rule that is correct at
// S = 2t+2b+1 (see baseline.NewFastSafeReader). At S = 2t+2b the write
// quorum and the read quorum intersect in only b correct objects, and
// run4 catches it returning ⊥ after a completed write.
func requireSupport(cfg quorum.Config, acks *baseline.Reports) types.TSVal {
	if best, ok := acks.Supported(cfg.SafeThreshold()); ok {
		return best
	}
	return types.InitTSVal()
}

// Candidates returns the one-round-read protocols the demonstrator
// refutes, covering the natural decision rules:
//
//   - trust-highest: return the highest timestamp seen;
//   - require-support: return the highest b+1-supported pair, else ⊥;
//   - writing-reader: like require-support but the read also stores a
//     control timestamp at the objects — showing that merely writing
//     in one round does not escape the bound (the adversary forges the
//     post-read state σ1, exactly as the proof does).
func Candidates() []Protocol {
	mk := func(name string, writing bool, rule decisionRule) Protocol {
		return Protocol{
			Name:     name,
			FastRead: true,
			NewObject: func(id types.ObjectID, cfg quorum.Config) Forgeable {
				return newPairObject(id, cfg.R)
			},
			NewWriter: func(cfg quorum.Config, conn transport.Conn) (WriterClient, error) {
				return baseline.NewWriter(cfg, conn), nil
			},
			NewReader: func(cfg quorum.Config, conn transport.Conn) (ReaderClient, error) {
				return &fastReader{Client: core.NewClient(cfg, conn), rule: rule, writing: writing}, nil
			},
		}
	}
	return []Protocol{
		mk("fast/trust-highest", false, trustHighest),
		mk("fast/require-support", false, requireSupport),
		mk("fast/writing-reader", true, requireSupport),
	}
}
