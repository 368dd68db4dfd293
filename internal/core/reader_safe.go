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

// SafeReader is the two-round reader of the safe storage (Fig. 4).
//
// In both rounds the reader writes a fresh control timestamp tsr into
// every object and reads back the objects' pw and w fields. The first
// round completes once a pairwise conflict-free subset of at least S−t
// responders exists; the second round completes once some candidate with
// the highest timestamp is safe — vouched for by at least b+1 objects —
// or the candidate set has emptied (possible only under concurrency), in
// which case the initial value ⊥ is returned, which safety permits.
//
// SafeReader is not safe for concurrent use; each reader process invokes
// one READ at a time (its identity is baked into the tsr[j] fields).
type SafeReader struct{ reader }

// NewSafeReader returns the reader client with identity id.
func NewSafeReader(cfg quorum.Config, conn transport.Conn, id types.ReaderID) (*SafeReader, error) {
	r, err := newReader(cfg, conn, id)
	if err != nil {
		return nil, err
	}
	return &SafeReader{r}, nil
}

// Read performs one READ and returns the timestamp-value pair it
// selected (⟨0,⊥⟩ when the candidate set emptied under concurrency).
func (r *SafeReader) Read(ctx context.Context) (types.TSVal, error) {
	return r.read(ctx, safeStates.Get().(*safeReadState), 0)
}

// safeReply is one object's acknowledgement of one round: its w and pw
// fields.
type safeReply struct {
	ok bool
	w  types.WTuple
	pw types.TSVal
}

// safeReadState carries the per-READ bookkeeping of Fig. 4. rep[r][i]
// holds object i's reply in round r+1; the candidate set C and the
// witness sets FirstRW, RW, RPW and RespondedWO are scans over it.
type safeReadState struct {
	readBase
	rep [2][]safeReply
}

func newSafeReadState(cfg quorum.Config, j types.ReaderID) *safeReadState {
	return &safeReadState{readBase: newReadBase(cfg, j)}
}

var safeStates = sync.Pool{New: func() any { return newSafeReadState(quorum.Config{}, 0) }}

func (s *safeReadState) release() {
	s.readBase.reset()
	clear(s.rep[0])
	clear(s.rep[1])
	safeStates.Put(s)
}

func (s *safeReadState) absorb(msg transport.Message) bool {
	ack, ok := msg.Payload.(wire.ReadAck)
	if !ok || !s.fresh(msg, ack.ObjectID, ack.Round, ack.TSR) {
		return false
	}
	if len(s.rep[0]) != s.cfg.S {
		s.rep = [2][]safeReply{make([]safeReply, s.cfg.S), make([]safeReply, s.cfg.S)}
	}
	r := &s.rep[ack.Round-wire.Round1][ack.ObjectID]
	if r.ok {
		return false
	}
	*r = safeReply{ok: true, w: ack.W, pw: ack.PW}
	if ack.Round == wire.Round1 {
		s.respFirst.add(ack.ObjectID)
	}
	return true
}

// objects counts the objects with a reply, in either round, that
// satisfies pred.
func (s *safeReadState) objects(pred func(*safeReply) bool) int {
	n := 0
	for i := range s.rep[0] {
		if r1, r2 := &s.rep[0][i], &s.rep[1][i]; r1.ok && pred(r1) || r2.ok && pred(r2) {
			n++
		}
	}
	return n
}

// unanimous returns the first round-1 reply when every round-1 reply
// equals it in both the w and the pw field.
func (s *safeReadState) unanimous() (*safeReply, bool) {
	var first *safeReply
	for i := range s.rep[0] {
		r := &s.rep[0][i]
		switch {
		case !r.ok:
		case first == nil:
			first = r
		case !r.w.Equal(first.w) || !r.pw.Equal(first.pw):
			return nil, false
		}
	}
	return first, first != nil
}

// fastDecide evaluates the single-round fast-path predicate after the
// round-1 loop: return the unanimous candidate's pair iff
//
//  1. ≥ S−t round-1 replies arrived, ALL identical in both the w and
//     pw fields — equal by types' Equal, which compares value bytes and
//     matrix rows (a single candidate c with pw = c.tsval);
//  2. pw equals c.tsval — timestamp dominance: no object observed a
//     pre-write newer than c, i.e. no write was in progress at any
//     responder when it replied;
//  3. c's tsr matrix is conflict-free for this reader: no row claims a
//     control timestamp above tsrFR (Fig. 4 line 1).
//
// Safety, from S = 2t+b+1 (so S−t = t+b+1 and S−2t = b+1):
//
//   - Genuineness: of the t+b+1 identical replies at most b come from
//     Byzantine objects, so ≥ t+1 ≥ b+1 honest objects stored exactly
//     c — c was really written (or is the initial tuple), and safe(c)
//     of Fig. 4 line 3 already holds with round-1 evidence alone.
//   - Dominance: let W* be the last write completed before this READ
//     began. Its W round installed tuple(W*) at some set Q of S−t
//     objects before the READ began; our responder set P also has S−t
//     objects, and |P ∩ Q| ≥ 2(S−t) − S = S−2t = b+1, so P ∩ Q holds
//     an honest object o. o's w field is timestamp-monotone and held
//     tuple(W*) before the READ began, yet o reported c — hence
//     c.ts ≥ ts(W*), and by (2) no newer write was in flight, so
//     returning c.tsval satisfies safe (and regular) semantics
//     exactly as the two-round decision would.
//   - Conflict: a genuine matrix cannot accuse this reader of a
//     timestamp above tsrFR (the reader just minted it), so (3) can
//     only fail on a forged tuple — which unanimity plus t+1 honest
//     vouchers already excludes; the check is kept as cheap defense
//     in depth, mirroring Fig. 4's round-1 completion rule.
//
// Any divergence, in-progress write, or conflict falls back to the
// two-round protocol — the paper's Proposition 1 shows rounds can
// only be saved in exactly these contention- and fault-free runs.
func (s *safeReadState) fastDecide() (types.TSVal, bool) {
	first, ok := s.unanimous()
	if !ok || len(s.respFirst) < s.cfg.RoundQuorum() {
		return types.TSVal{}, false
	}
	c := first.w
	if !first.pw.Equal(c.TSVal) {
		return types.TSVal{}, false // a pre-write is in flight somewhere
	}
	for _, vec := range c.TSR {
		if s.accuses(vec) {
			return types.TSVal{}, false // forged matrix conflicts with us
		}
	}
	return c.TSVal, true
}

// repairHint picks the tuple the slow-path round 2 piggybacks: the
// highest-timestamp candidate whose exact tuple was reported by ≥ b+1
// objects in round 1. b+1 equal full-tuple reports mean at least one
// honest object durably stores c, so c is genuine and a Byzantine
// object cannot launder a forged tuple through this reader into honest
// replicas. Returns false when round 1 was unanimous (nothing to
// repair) or no candidate clears the vouching bar.
func (s *safeReadState) repairHint() (types.WTuple, bool) {
	if _, ok := s.unanimous(); ok {
		return types.WTuple{}, false
	}
	var best *types.WTuple
	for i := range s.rep[0] {
		c := &s.rep[0][i].w
		if !s.rep[0][i].ok || best != nil && c.TSVal.TS <= best.TSVal.TS {
			continue
		}
		if s.firstRW(*c) >= s.cfg.SafeThreshold() {
			best = c
		}
	}
	if best == nil {
		return types.WTuple{}, false
	}
	return *best, true
}

// firstRW counts FirstRW(c): the objects that reported c in round 1.
func (s *safeReadState) firstRW(c types.WTuple) int {
	n := 0
	for i := range s.rep[0] {
		if s.reports(types.ObjectID(i), c) {
			n++
		}
	}
	return n
}

func (s *safeReadState) reports(k types.ObjectID, c types.WTuple) bool {
	r := &s.rep[0][k]
	return r.ok && r.w.Equal(c)
}

// respondedWO counts the objects that reported some tuple other than c
// in their w field, in any round (Fig. 4 line 2).
func (s *safeReadState) respondedWO(c types.WTuple) int {
	return s.objects(func(r *safeReply) bool { return !r.w.Equal(c) })
}

// activeCandidates returns C in ascending order of the first object
// that reported each candidate: the distinct tuples reported in round
// 1, less those removed by the RespondedWO(c) ≥ t+b+1 rule. The order
// makes decide deterministic.
func (s *safeReadState) activeCandidates() []types.WTuple {
	var out []types.WTuple
	for i := range s.rep[0] {
		r := &s.rep[0][i]
		// A tuple equal to an earlier inactive one is inactive too.
		if r.ok && !slices.ContainsFunc(out, r.w.Equal) && s.respondedWO(r.w) < s.cfg.InvalidThreshold() {
			out = append(out, r.w)
		}
	}
	return out
}

// safeWitnesses counts the objects vouching for candidate c (Fig. 4
// line 3): those that reported c in w, c.tsval in pw, or any tuple or
// pair with a strictly higher timestamp.
func (s *safeReadState) safeWitnesses(c types.WTuple) int {
	return s.objects(func(r *safeReply) bool {
		return r.w.Equal(c) || r.w.TSVal.TS > c.TSVal.TS || r.pw.Equal(c.TSVal) || r.pw.TS > c.TSVal.TS
	})
}

// decide evaluates the Fig. 4 line 14 condition and, when it holds,
// returns the value to return: the safe highest candidate's pair, or
// ⟨0,⊥⟩ when C is empty.
func (s *safeReadState) decide() (types.TSVal, bool) {
	active := s.activeCandidates()
	if len(active) == 0 {
		return types.InitTSVal(), true
	}
	return highestSafe(active, func(c types.WTuple) bool { return s.safeWitnesses(c) >= s.cfg.SafeThreshold() })
}
