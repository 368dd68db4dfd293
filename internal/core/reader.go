package core

import (
	"context"
	"fmt"

	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// reader is what the safe and the regular reader share: identity j,
// the control timestamp tsr′_j that persists across READs, and the
// fast-path switch.
type reader struct {
	Client
	id       types.ReaderID
	tsr      types.ReaderTS
	fastPath bool
	settle   func(types.TSVal) types.TSVal // nil, or the regular reader's §5.1 cache rule
}

func newReader(cfg quorum.Config, conn transport.Conn, id types.ReaderID) (reader, error) {
	c, err := newClient(cfg, conn)
	if err != nil {
		return reader{}, err
	}
	if int(id) < 0 || int(id) >= cfg.R {
		return reader{}, fmt.Errorf("%w: reader id %d out of range [0,%d)", ErrBadConfig, id, cfg.R)
	}
	return reader{Client: c, id: id}, nil
}

// SetFastPath enables the contention-free single-round fast path and,
// on the slow path, round-2 read repair. Off by default (the classic
// two-round protocol of Figs. 4 and 6). See safeReadState.fastDecide
// and regularReadState.fastDecide for the decision predicates and
// their quorum-intersection safety arguments.
func (r *reader) SetFastPath(on bool) { r.fastPath = on }

// read performs one READ over s, a state taken from its pool, and
// releases s; cacheTS is shipped in both rounds (§5.1).
func (r *reader) read(ctx context.Context, s readState, cacheTS types.TS) (types.TSVal, error) {
	a := &readOp{r: r, s: s, cacheTS: cacheTS}
	err := r.Run(ctx, OpRead, a)
	s.release()
	if err != nil {
		return types.TSVal{}, err
	}
	return a.ret, nil
}

// readState is the per-READ bookkeeping of Fig. 4 (safeReadState) or
// Fig. 6 (regularReadState). Readers take states from a pool, so that
// a READ allocates no maps of its own in the steady state while idle
// reader clients hold none.
type readState interface {
	base() *readBase
	// release clears the state and returns it to its pool.
	release()
	// absorb processes one delivered message; true when it was a
	// fresh, well-formed acknowledgement of this READ.
	absorb(m transport.Message) bool
	// activeCandidates returns the candidate set C: the tuples reported
	// in round 1, less those removed by line 2 of Figs. 4 and 6.
	activeCandidates() []types.WTuple
	// reports reports whether object k's round-1 reply holds tuple c.
	reports(k types.ObjectID, c types.WTuple) bool
	fastDecide() (types.TSVal, bool)
	repairHint() (types.WTuple, bool)
	// decide evaluates the line 14 condition and, when it holds,
	// returns the pair to return.
	decide() (types.TSVal, bool)
}

// readBase is the bookkeeping both read states share: the reader's
// two round timestamps and the round-1 responder set Resp1.
type readBase struct {
	cfg       quorum.Config
	j         types.ReaderID
	fast      bool // the fast path is on
	tsrFR     types.ReaderTS
	tsrSR     types.ReaderTS // 0 until round 2 starts
	respFirst objSet
}

func newReadBase(cfg quorum.Config, j types.ReaderID) readBase {
	return readBase{cfg: cfg, j: j, respFirst: make(objSet)}
}

func (b *readBase) base() *readBase { return b }

func (b *readBase) reset() {
	b.tsrFR, b.tsrSR = 0, 0
	clear(b.respFirst)
}

// accuses reports whether vec, one row of a tuple's matrix, claims its
// object handed the writer a control timestamp of this reader above
// tsrFR: one the reader had not issued when round 1 began (line 1 of
// Figs. 4 and 6).
func (b *readBase) accuses(vec types.TSRVector) bool { return vec.Get(b.j) > b.tsrFR }

// conflictFreeQuorum evaluates the line 11 condition of Figs. 4 and 6
// for s, the state embedding b: a pairwise conflict-free subset of
// ≥ S−t round-1 responders exists. conflict(i, k) holds iff k reports an
// active candidate c whose row c.tsrarray[i] accuses this reader. The
// graph is built only once S−t objects have responded.
func (b *readBase) conflictFreeQuorum(s readState) bool {
	if len(b.respFirst) < b.cfg.RoundQuorum() {
		return false
	}
	responders := make([]types.ObjectID, 0, len(b.respFirst))
	for id := range b.respFirst {
		responders = append(responders, id)
	}
	g := newConflictGraph()
	for _, c := range s.activeCandidates() {
		for i, vec := range c.TSR {
			if !b.accuses(vec) {
				continue
			}
			for _, k := range responders {
				if s.reports(k, c) {
					g.addConflict(i, k)
				}
			}
		}
	}
	return g.hasConflictFreeSubset(responders, b.cfg.RoundQuorum())
}

// highestSafe evaluates line 14 of Figs. 4 and 6 on the candidates in
// active: the pair of the first candidate, in active's order, that has
// the highest timestamp among them and is safe.
func highestSafe(active []types.WTuple, safe func(types.WTuple) bool) (types.TSVal, bool) {
	maxTS := types.TS(-1)
	for _, c := range active {
		maxTS = max(maxTS, c.TSVal.TS)
	}
	for _, c := range active {
		if c.TSVal.TS == maxTS && safe(c) {
			return c.TSVal, true
		}
	}
	return types.TSVal{}, false
}

// fresh reports whether an acknowledgement delivered as m, claiming
// object id and echoing (round, tsr), answers this READ.
func (b *readBase) fresh(m transport.Message, id types.ObjectID, round wire.Round, tsr types.ReaderTS) bool {
	if !FromObject(m, id, b.cfg.S) {
		return false
	}
	switch {
	case round == wire.Round1 && tsr == b.tsrFR:
	case round == wire.Round2 && b.tsrSR != 0 && tsr == b.tsrSR:
	default:
		return false // stale or mismatched control timestamp
	}
	return true
}

// readOp is one READ as an automaton: round 1 until a conflict-free
// set of S−t responders exists, then either the fast-path decision or
// round 2 (carrying the repair hint) until the decision holds.
type readOp struct {
	Op
	r       *reader
	s       readState
	cacheTS types.TS
	ret     types.TSVal
}

func (a *readOp) Start() wire.Msg {
	b := a.s.base()
	b.cfg, b.j, b.fast = a.r.cfg, a.r.id, a.r.fastPath
	// tsrFR := ++tsr′_j; send READ1⟨tsr′_j⟩ to all objects.
	a.r.tsr++
	b.tsrFR = a.r.tsr
	return wire.ReadReq{Round: wire.Round1, Reader: a.r.id, TSR: a.r.tsr, CacheTS: a.cacheTS}
}

func (a *readOp) Step(m transport.Message) (wire.Msg, bool) {
	s := a.s
	if !s.absorb(m) {
		return nil, false
	}
	switch ack := m.Payload.(type) {
	case wire.ReadAck:
		a.Ack(int(ack.Round), ack.ObjectID)
	case wire.ReadAckHist:
		a.Ack(int(ack.Round), ack.ObjectID)
	}
	b := s.base()
	if b.tsrSR != 0 {
		return nil, a.decided()
	}
	if !b.conflictFreeQuorum(s) {
		return nil, false
	}
	if b.fast {
		if ret, ok := s.fastDecide(); ok {
			a.st.FastPath = true
			a.trace.Ext(OpRead, EvFastRead, 0, 0, 0)
			return nil, a.finish(ret)
		}
	}
	// inc(tsr′_j); send READ2⟨tsr′_j⟩ to all objects. On the slow path,
	// piggyback the dominant b+1-vouched tuple (if round 1 revealed
	// divergence) so lagging replicas converge: read repair. The
	// decision may already hold on round-1 evidence.
	a.r.tsr++
	b.tsrSR = a.r.tsr
	var repair *types.WTuple
	if b.fast {
		if hint, ok := s.repairHint(); ok {
			repair = &hint
		}
	}
	return wire.ReadReq{Round: wire.Round2, Reader: a.r.id, TSR: b.tsrSR, CacheTS: a.cacheTS, Repair: repair}, a.decided()
}

// decided evaluates the round-2 decision and completes the READ when it
// holds.
func (a *readOp) decided() bool {
	ret, ok := a.s.decide()
	return ok && a.finish(ret)
}

func (a *readOp) finish(ret types.TSVal) bool {
	if a.r.settle != nil {
		ret = a.r.settle(ret)
	}
	a.ret, a.TS = ret.Clone(), ret.TS // ret is shared with replies and the cache
	return true
}
