package core

import (
	"context"
	"slices"
	"sync"

	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// RegularReader is the two-round reader of the regular storage (Fig. 6).
// Base objects keep the full write history (Fig. 5) and ship it — or,
// with the §5.1 optimization, only the suffix above the reader's cached
// timestamp — in both read rounds. Candidates are validated per write
// timestamp: safe(c) needs b+1 objects confirming the exact history
// entry, invalid(c) discards a candidate once t+b+1 objects contradict
// it.
//
// RegularReader is not safe for concurrent use.
type RegularReader struct {
	reader
	optimized bool
	cache     types.TSVal // last returned pair (⟨0,⊥⟩ initially)
}

// NewRegularReader returns the regular reader client with identity id.
// With optimized set, READ1/READ2 messages carry the reader's cached
// timestamp and objects reply with history suffixes (§5.1); when the
// candidate set is empty after a full second round the cached value is
// returned.
func NewRegularReader(cfg quorum.Config, conn transport.Conn, id types.ReaderID, optimized bool) (*RegularReader, error) {
	r, err := newReader(cfg, conn, id)
	if err != nil {
		return nil, err
	}
	rr := &RegularReader{reader: r, optimized: optimized, cache: types.InitTSVal()}
	rr.settle = rr.settleCache
	return rr, nil
}

// Cache returns the reader's cached pair (§5.1).
func (r *RegularReader) Cache() types.TSVal { return r.cache.Clone() }

// Read performs one READ and returns the selected timestamp-value pair.
func (r *RegularReader) Read(ctx context.Context) (types.TSVal, error) {
	cacheTS := types.TS(0)
	if r.optimized {
		cacheTS = r.cache.TS
	}
	s := regularStates.Get().(*regularReadState)
	s.optimized = r.optimized
	return r.read(ctx, s, cacheTS)
}

// settleCache keeps the cache at the highest pair returned. Under §5.1 a
// decision at or below the cache, including the empty-candidate-set
// marker ⟨0,⊥⟩, returns the cache instead.
func (r *RegularReader) settleCache(ret types.TSVal) types.TSVal {
	if ret.TS > r.cache.TS {
		r.cache = ret
	} else if r.optimized {
		ret = r.cache
	}
	return ret
}

// regularReadState carries the per-READ bookkeeping of Fig. 6.
type regularReadState struct {
	readBase
	optimized bool // §5.1: an empty candidate set after a round-2 quorum decides

	// lastTSR implements the Fig. 6 line 18/23 guard: accept an object's
	// ack only with a strictly higher echoed control timestamp.
	lastTSR map[types.ObjectID]types.ReaderTS

	// hist[rnd][i] is the history object i reported in round rnd.
	hist map[wire.Round]map[types.ObjectID]types.History

	// candidates holds C before removals: the distinct tuples of the
	// round-1 histories' non-nil w entries, by the tuple's own
	// timestamp. They alias the histories in hist.
	candidates map[types.TS][]types.WTuple

	resp2 objSet

	// Fast-path bookkeeping (populated only with fast set): the first
	// round-1 history, and whether every later round-1 history equals it.
	r1Hist      types.History
	r1Unanimous bool
}

func newRegularReadState(cfg quorum.Config, j types.ReaderID) *regularReadState {
	return &regularReadState{
		readBase: newReadBase(cfg, j),
		lastTSR:  make(map[types.ObjectID]types.ReaderTS),
		hist: map[wire.Round]map[types.ObjectID]types.History{
			wire.Round1: make(map[types.ObjectID]types.History),
			wire.Round2: make(map[types.ObjectID]types.History),
		},
		candidates:  make(map[types.TS][]types.WTuple),
		resp2:       make(objSet),
		r1Unanimous: true,
	}
}

var regularStates = sync.Pool{New: func() any { return newRegularReadState(quorum.Config{}, 0) }}

func (s *regularReadState) release() {
	s.readBase.reset()
	clear(s.lastTSR)
	clear(s.hist[wire.Round1])
	clear(s.hist[wire.Round2])
	clear(s.candidates)
	clear(s.resp2)
	s.r1Hist, s.r1Unanimous = nil, true
	regularStates.Put(s)
}

func (s *regularReadState) absorb(msg transport.Message) bool {
	ack, ok := msg.Payload.(wire.ReadAckHist)
	if !ok || !s.fresh(msg, ack.ObjectID, ack.Round, ack.TSR) {
		return false
	}
	if ack.TSR <= s.lastTSR[ack.ObjectID] {
		return false
	}
	s.lastTSR[ack.ObjectID] = ack.TSR

	h := ack.History
	s.hist[ack.Round][ack.ObjectID] = h
	if ack.Round == wire.Round1 {
		for _, e := range h {
			if e.W == nil {
				continue
			}
			ts := e.W.TSVal.TS
			if !slices.ContainsFunc(s.candidates[ts], e.W.Equal) {
				s.candidates[ts] = append(s.candidates[ts], *e.W)
			}
		}
		if s.fast {
			if len(s.respFirst) == 0 {
				s.r1Hist = h
			} else if !h.Equal(s.r1Hist) {
				s.r1Unanimous = false
			}
		}
		s.respFirst.add(ack.ObjectID)
	} else {
		s.resp2.add(ack.ObjectID)
	}
	return true
}

// fastDecide evaluates the single-round fast-path predicate after the
// round-1 loop: return the top complete entry of the unanimous
// round-1 history iff
//
//  1. ≥ S−t round-1 replies arrived, ALL carrying identical histories
//     (types.History.Equal: same timestamps, pw pairs, and complete
//     tuples);
//  2. the highest-timestamp entry is COMPLETE and dominant: its w is
//     non-nil and its pw equals w.tsval — so no responder observed a
//     pre-write newer than the returned write;
//  3. every tuple in the history is conflict-free for this reader
//     (no tsr row above tsrFR, Fig. 6 line 1).
//
// The safety argument mirrors the safe reader's (see
// safeReadState.fastDecide), with history entries as the evidence:
// t+b+1 identical replies leave ≥ t+1 ≥ b+1 honest objects storing the
// exact top entry, so safe(c) of Fig. 6 line 3 holds with round-1
// evidence alone and c is genuine; quorum intersection (|P ∩ Q| ≥
// S−2t = b+1 with any completed write's install set Q) puts an honest
// monotone object in both, so the unanimous top timestamp dominates
// every write completed before the READ began. Note the §5.1 suffix
// optimization never hides the top entry: objects always ship history
// at or above the reader's own cached timestamp, and GC retains the
// newest entry.
func (s *regularReadState) fastDecide() (types.TSVal, bool) {
	if !s.fast || !s.r1Unanimous || len(s.respFirst) < s.cfg.RoundQuorum() {
		return types.TSVal{}, false
	}
	h := s.r1Hist
	top, ok := h[h.MaxTS()]
	if !ok || top.W == nil || !top.PW.Equal(top.W.TSVal) {
		return types.TSVal{}, false // empty suffix, or a write in flight
	}
	for _, e := range h {
		if e.W == nil {
			continue
		}
		for _, vec := range e.W.TSR {
			if s.accuses(vec) {
				return types.TSVal{}, false // forged matrix conflicts with us
			}
		}
	}
	return top.W.TSVal, true
}

// repairHint picks the tuple the slow-path round 2 piggybacks: the
// highest-timestamp candidate whose exact complete entry (w AND the
// matching pw) appears in ≥ b+1 round-1 histories — at least one
// honest object durably stores it, so the hint is genuine and cannot
// launder a forged tuple into honest replicas.
func (s *regularReadState) repairHint() (types.WTuple, bool) {
	if !s.fast || s.r1Unanimous {
		return types.WTuple{}, false
	}
	var best *types.WTuple
	for ts, cs := range s.candidates {
		if best != nil && ts <= best.TSVal.TS {
			continue
		}
		for i := range cs {
			if s.vouchers(cs[i]) >= s.cfg.SafeThreshold() {
				best = &cs[i]
				break
			}
		}
	}
	if best == nil {
		return types.WTuple{}, false
	}
	return *best, true
}

// vouchers counts the round-1 histories holding c's complete entry.
func (s *regularReadState) vouchers(c types.WTuple) int {
	n := 0
	for _, h := range s.hist[wire.Round1] {
		if e, ok := h[c.TSVal.TS]; ok && e.W != nil && e.W.Equal(c) && e.PW.Equal(c.TSVal) {
			n++
		}
	}
	return n
}

// entryMismatch reports whether history h contradicts candidate c at
// c's timestamp: entry missing, w nil, pw ≠ c.tsval, or w ≠ c (Fig. 6
// line 2).
func entryMismatch(h types.History, c types.WTuple) bool {
	e, ok := h[c.TSVal.TS]
	if !ok || e.W == nil {
		return true
	}
	return !e.PW.Equal(c.TSVal) || !e.W.Equal(c)
}

// entryMatch reports whether h confirms c at c's timestamp: pw equals
// c.tsval or w equals c (Fig. 6 line 3).
func entryMatch(h types.History, c types.WTuple) bool {
	e, ok := h[c.TSVal.TS]
	if !ok {
		return false
	}
	if e.PW.Equal(c.TSVal) {
		return true
	}
	return e.W != nil && e.W.Equal(c)
}

// witnesses counts the objects whose history, in either round,
// satisfies pred.
func (s *regularReadState) witnesses(pred func(types.History) bool) int {
	n := 0
	for i := 0; i < s.cfg.S; i++ {
		for _, byObj := range s.hist {
			if h, ok := byObj[types.ObjectID(i)]; ok && pred(h) {
				n++
				break
			}
		}
	}
	return n
}

// invalid reports whether t+b+1 objects contradict c (Fig. 6 line 2).
func (s *regularReadState) invalid(c types.WTuple) bool {
	return s.witnesses(func(h types.History) bool { return entryMismatch(h, c) }) >= s.cfg.InvalidThreshold()
}

// safe reports whether b+1 objects confirm c (Fig. 6 line 3).
func (s *regularReadState) safe(c types.WTuple) bool {
	return s.witnesses(func(h types.History) bool { return entryMatch(h, c) }) >= s.cfg.SafeThreshold()
}

// activeCandidates returns the candidates not yet invalidated, each
// timestamp's candidates in the order they were first reported.
func (s *regularReadState) activeCandidates() []types.WTuple {
	var out []types.WTuple
	for _, cs := range s.candidates {
		for _, c := range cs {
			if !s.invalid(c) {
				out = append(out, c)
			}
		}
	}
	return out
}

// reports reports whether some entry of k's round-1 history, under any
// timestamp, holds c (Fig. 6 line 1).
func (s *regularReadState) reports(k types.ObjectID, c types.WTuple) bool {
	for _, e := range s.hist[wire.Round1][k] {
		if e.W != nil && e.W.Equal(c) {
			return true
		}
	}
	return false
}

// decide evaluates the Fig. 6 line 14 condition: some highest active
// candidate is safe. Under §5.1, an empty candidate set after a full
// round-2 quorum also terminates (the reader substitutes the cache).
// Candidates sharing the highest timestamp come from one slice of
// candidates, in a fixed order, so the decision does not depend on map
// order.
func (s *regularReadState) decide() (types.TSVal, bool) {
	active := s.activeCandidates()
	if len(active) == 0 {
		if s.optimized && len(s.resp2) >= s.cfg.RoundQuorum() {
			return types.InitTSVal(), true
		}
		return types.TSVal{}, false
	}
	return highestSafe(active, s.safe)
}
