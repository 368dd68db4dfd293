package baseline

import (
	"cmp"
	"context"
	"slices"

	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Reader is every baseline READ. Each round broadcasts a query; the
// reader keeps each object's latest report of this READ and applies its
// decision rule once S−t objects have reported. A round that collects
// S−t fresh replies without a decision starts the next (FastSafe under
// write concurrency, MultiRound against forgeries). ABD's atomic reader
// then writes the chosen pair back.
type Reader struct {
	core.Client
	decide    func(*Reports) (types.TSVal, bool) // the protocol's rule; false: not yet
	twoField  bool                               // MultiRound: replies are PairsReadAck
	keys      *AuthKeys                          // Auth: a pair without a valid signature reports ⟨0,⊥⟩
	writeBack bool                               // atomic ABD
	attempt   int
}

// highest is the rule of ABD and Auth: the highest reported pair.
func highest(r *Reports) (types.TSVal, bool) { return r.Highest(), true }

// Read returns the pair the reader's rule decides.
func (r *Reader) Read(ctx context.Context) (types.TSVal, error) {
	s := r.Cfg().S
	a := &readOp{r: r, reps: NewReports(s), fresh: make([]bool, s)}
	if err := r.Run(ctx, core.OpRead, a); err != nil {
		return types.TSVal{}, err
	}
	return a.ret, nil
}

// readOp is one READ as an automaton.
type readOp struct {
	core.Op
	r *Reader
	// first is the READ's first attempt: replies to earlier READs are
	// discarded, since deciding on them can resurrect superseded pairs.
	first  int
	reps   *Reports
	fresh  []bool // objects that answered the current attempt
	nfresh int
	ret    types.TSVal
	back   *acks // the atomic write-back round, once started
}

func (a *readOp) Start() wire.Msg {
	a.r.attempt++
	a.first = a.r.attempt
	return wire.BaselineReadReq{Attempt: a.r.attempt}
}

func (a *readOp) Step(m transport.Message) (wire.Msg, bool) {
	r, cfg := a.r, a.r.Cfg()
	q := cfg.RoundQuorum()
	if a.back != nil {
		ack, ok := m.Payload.(wire.BaselineWriteAck)
		return nil, ok && a.back.add(&a.Op, 2, m, ack.ObjectID, ack.TS)
	}
	id, attempt, pw, w, sig, ok := r.report(m.Payload)
	if !ok || attempt < a.first || attempt > r.attempt || !core.FromObject(m, id, cfg.S) {
		return nil, false
	}
	// Auth checks a signature only on a pair above the highest so far;
	// any other pair reports ⟨0,⊥⟩, which cannot change the highest.
	if r.keys != nil && (w.TS <= a.reps.Highest().TS || !r.keys.Verify(w.TS, w.Val, sig)) {
		pw, w = types.InitTSVal(), types.InitTSVal()
	}
	a.Ack(attempt-a.first+1, id)
	a.reps.Put(id, pw, w)
	if attempt == r.attempt && !a.fresh[id] {
		a.fresh[id] = true
		a.nfresh++
	}
	// Quorum intersection is what guarantees the latest complete write
	// is even a candidate: never decide on fewer than S−t reports.
	if a.reps.Len() >= q {
		if ret, ok := r.decide(a.reps); ok {
			a.ret, a.TS = ret, ret.TS
			if !r.writeBack || ret.TS == 0 {
				return nil, true
			}
			// Install the chosen pair at a majority, so that every later
			// READ sees a timestamp at least as high.
			back := newAcks(cfg, ret.TS)
			a.back = &back
			return wire.BaselineWriteReq{TS: ret.TS, Val: ret.Val.Clone()}, false
		}
	}
	if a.nfresh < q {
		return nil, false
	}
	// A fresh quorum arrived without a decision (forged high candidates
	// not yet refuted, or support fragmented by a concurrent write):
	// query again.
	r.attempt++
	clear(a.fresh)
	a.nfresh = 0
	return wire.BaselineReadReq{Attempt: r.attempt}, false
}

// report extracts the report a reply carries: single-field objects
// answer BaselineReadAck (with the writer's signature for Auth),
// MultiRound's two-field objects PairsReadAck.
func (r *Reader) report(p wire.Msg) (id types.ObjectID, attempt int, pw, w types.TSVal, sig []byte, ok bool) {
	switch ack := p.(type) {
	case wire.BaselineReadAck:
		pair := types.TSVal{TS: ack.TS, Val: ack.Val.Clone()}
		return ack.ObjectID, ack.Attempt, pair, pair, ack.Sig, !r.twoField
	case wire.PairsReadAck:
		return ack.ObjectID, ack.Attempt, ack.PW.Clone(), ack.W.Clone(), nil, r.twoField
	}
	return
}

// Reports holds each object's latest report during one READ, in object
// order: the pair in its pre-write field and the pair in its write field
// (an object with one field reports the same pair twice). The decision
// rules scan it in object order, so no decision depends on the order
// replies arrive in or on map iteration order.
type Reports struct {
	rep []report
	n   int
}

type report struct {
	ok    bool
	pw, w types.TSVal
}

// NewReports returns an empty table for objects 0..s−1.
func NewReports(s int) *Reports { return &Reports{rep: make([]report, s)} }

// Put records object id's report unless the one held is newer in either
// field: correct objects are monotone, so this keeps each object's
// freshest view.
func (r *Reports) Put(id types.ObjectID, pw, w types.TSVal) {
	cur := &r.rep[id]
	if cur.ok && (pw.TS < cur.pw.TS || w.TS < cur.w.TS) {
		return
	}
	if !cur.ok {
		r.n++
	}
	*cur = report{ok: true, pw: pw, w: w}
}

// Len returns how many objects have reported.
func (r *Reports) Len() int { return r.n }

// Highest returns the highest reported pair, the first in object order
// among equal timestamps, and ⟨0,⊥⟩ when none is higher.
func (r *Reports) Highest() types.TSVal {
	best := types.InitTSVal()
	for _, p := range r.rep {
		if p.ok && p.w.TS > best.TS {
			best = p.w
		}
	}
	return best
}

// Supported returns the highest pair that at least need objects report
// identically, the first in object order among equal timestamps.
// Byzantine objects (at most b) cannot fabricate b+1 such reports.
func (r *Reports) Supported(need int) (types.TSVal, bool) {
	var best types.TSVal
	found := false
	for _, p := range r.rep {
		if !p.ok || found && p.w.TS <= best.TS {
			continue
		}
		n := 0
		for _, o := range r.rep {
			if o.ok && o.w.Equal(p.w) {
				n++
			}
		}
		if n >= need {
			best, found = p.w, true
		}
	}
	return best, found
}

// Decide is the refute-or-support rule of MultiRound's reader and of
// the push reader of the server-centric model. It scans the candidates
// — ⟨0,⊥⟩ and every reported write-field pair — from the highest
// timestamp down, those sharing a timestamp in the order of the lowest
// object that reported them. A candidate that t+b+1 objects refute is
// skipped: it was never completely written. The first candidate not
// refuted is returned once b+1 objects support it, and blocks the
// decision until then; ⟨0,⊥⟩ needs no support.
//
// An object refutes c when both its fields sit strictly below c, or
// when it reports c's timestamp with another value and nothing newer:
// the correct writer writes one value per timestamp. It supports c when
// either field holds c or a higher timestamp. The last completed
// write's ≥ t+1 correct holders can never be outnumbered into its
// refutation, so safety holds unconditionally; Byzantine forgeries
// above it can only delay the decision until they are refuted.
func (r *Reports) Decide(cfg quorum.Config) (types.TSVal, bool) {
	cands := []types.TSVal{types.InitTSVal()}
	for _, p := range r.rep {
		if p.ok && !slices.ContainsFunc(cands, p.w.Equal) {
			cands = append(cands, p.w)
		}
	}
	slices.SortStableFunc(cands, func(x, y types.TSVal) int { return cmp.Compare(y.TS, x.TS) })
	for _, c := range cands {
		if c.TS == 0 {
			return c, true
		}
		refuters, supporters := 0, 0
		for _, p := range r.rep {
			if !p.ok {
				continue
			}
			below := p.pw.TS < c.TS && p.w.TS < c.TS
			sameTSMismatch := (p.w.TS == c.TS && !p.w.Equal(c) && p.pw.TS <= c.TS && !p.pw.Equal(c)) ||
				(p.pw.TS == c.TS && !p.pw.Equal(c) && p.w.TS <= c.TS && !p.w.Equal(c))
			if below || sameTSMismatch {
				refuters++
			}
			if p.pw.Equal(c) || p.w.Equal(c) || p.pw.TS > c.TS || p.w.TS > c.TS {
				supporters++
			}
		}
		if refuters >= cfg.InvalidThreshold() {
			continue
		}
		if supporters >= cfg.SafeThreshold() {
			return c, true
		}
		return types.TSVal{}, false
	}
	return types.TSVal{}, false
}
