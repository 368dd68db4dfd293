package core

import (
	"bytes"
	"context"
	"encoding/binary"
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

// tsvalKey canonically encodes a timestamp-value pair for map keys.
func tsvalKey(tv types.TSVal) string {
	var buf bytes.Buffer
	var tmp [8]byte
	binary.BigEndian.PutUint64(tmp[:], uint64(tv.TS))
	buf.Write(tmp[:])
	if tv.Val.IsBottom() {
		buf.WriteByte(0)
	} else {
		buf.WriteByte(1)
		buf.Write(tv.Val)
	}
	return buf.String()
}

// objSet is a set of object indices.
type objSet map[types.ObjectID]bool

func (s objSet) add(id types.ObjectID) { s[id] = true }

// safeReadState carries the per-READ bookkeeping of Fig. 4: the
// candidate set C, the witness sets RW / RPW / FirstRW, the round-1
// responder set, and the reader's two round timestamps.
type safeReadState struct {
	readBase

	// tuples and pairs intern the reported values by canonical key.
	tuples map[string]types.WTuple
	pairs  map[string]types.TSVal

	candidates objSetByKey // C: tuples reported in w fields in round 1
	firstRW    objSetByKey // FirstRW(c): who reported c in round 1
	rw         objSetByKey // RW(c): who reported c in any round
	rpw        objSetByKey // RPW(p): who reported pair p in any round

	seen     map[seenKey]bool        // processed (object, round) acks
	reported map[types.ObjectID]objS // per-object reported tuple keys (for RespondedWO)

	// Fast-path bookkeeping: the (w, pw) keys of the first round-1
	// reply, and whether every later round-1 reply matched both
	// byte-for-byte. Divergence is permanent for the READ.
	r1Seen      bool
	r1WK, r1PK  string
	r1Unanimous bool
}

// objSetByKey maps a canonical tuple/pair key to its witness set.
type objSetByKey map[string]objSet

func (m objSetByKey) at(key string) objSet {
	s := m[key]
	if s == nil {
		s = make(objSet)
		m[key] = s
	}
	return s
}

type objS map[string]bool

type seenKey struct {
	obj   types.ObjectID
	round wire.Round
}

func newSafeReadState(cfg quorum.Config, j types.ReaderID) *safeReadState {
	return &safeReadState{
		readBase:    newReadBase(cfg, j),
		tuples:      make(map[string]types.WTuple),
		pairs:       make(map[string]types.TSVal),
		candidates:  make(objSetByKey),
		firstRW:     make(objSetByKey),
		rw:          make(objSetByKey),
		rpw:         make(objSetByKey),
		seen:        make(map[seenKey]bool),
		reported:    make(map[types.ObjectID]objS),
		r1Unanimous: true,
	}
}

var safeStates = sync.Pool{New: func() any { return newSafeReadState(quorum.Config{}, 0) }}

func (s *safeReadState) release() {
	s.readBase.reset()
	for _, m := range [...]objSetByKey{s.candidates, s.firstRW, s.rw, s.rpw} {
		clear(m)
	}
	clear(s.tuples)
	clear(s.pairs)
	clear(s.seen)
	clear(s.reported)
	s.r1Seen, s.r1WK, s.r1PK, s.r1Unanimous = false, "", "", true
	safeStates.Put(s)
}

func (s *safeReadState) absorb(msg transport.Message) bool {
	ack, ok := msg.Payload.(wire.ReadAck)
	if !ok || !s.fresh(msg, ack.ObjectID, ack.Round, ack.TSR) {
		return false
	}
	k := seenKey{ack.ObjectID, ack.Round}
	if s.seen[k] {
		return false
	}
	s.seen[k] = true

	w := ack.W.Clone()
	pw := ack.PW.Clone()
	wk, pk := w.Key(), tsvalKey(pw)
	s.tuples[wk] = w
	s.pairs[pk] = pw

	s.rw.at(wk).add(ack.ObjectID)
	s.rpw.at(pk).add(ack.ObjectID)
	if s.reported[ack.ObjectID] == nil {
		s.reported[ack.ObjectID] = make(objS)
	}
	s.reported[ack.ObjectID][wk] = true

	if ack.Round == wire.Round1 {
		s.firstRW.at(wk).add(ack.ObjectID)
		s.candidates.at(wk).add(ack.ObjectID)
		s.respFirst.add(ack.ObjectID)
		if !s.r1Seen {
			s.r1Seen, s.r1WK, s.r1PK = true, wk, pk
		} else if wk != s.r1WK || pk != s.r1PK {
			s.r1Unanimous = false
		}
	}
	return true
}

// fastDecide evaluates the single-round fast-path predicate after the
// round-1 loop: return the unanimous candidate's pair iff
//
//  1. ≥ S−t round-1 replies arrived, ALL byte-identical in both the w
//     and pw fields (a single candidate c with pw = c.tsval);
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
	if !s.r1Unanimous || !s.r1Seen || len(s.respFirst) < s.cfg.RoundQuorum() {
		return types.TSVal{}, false
	}
	c := s.tuples[s.r1WK]
	pw := s.pairs[s.r1PK]
	if !pw.Equal(c.TSVal) {
		return types.TSVal{}, false // a pre-write is in flight somewhere
	}
	for _, vec := range c.TSR {
		if vec.Get(s.j) > s.tsrFR {
			return types.TSVal{}, false // forged matrix conflicts with us
		}
	}
	return c.TSVal.Clone(), true
}

// repairHint picks the tuple the slow-path round 2 piggybacks: the
// highest-timestamp candidate whose exact tuple was reported by ≥ b+1
// objects in round 1. b+1 byte-identical full-tuple reports mean at
// least one honest object durably stores c, so c is genuine and a
// Byzantine object cannot launder a forged tuple through this reader
// into honest replicas. Returns false when round 1 was unanimous
// (nothing to repair) or no candidate clears the vouching bar.
func (s *safeReadState) repairHint() (types.WTuple, bool) {
	if s.r1Unanimous {
		return types.WTuple{}, false
	}
	bestKey, found := "", false
	var best types.WTuple
	for ck, set := range s.firstRW {
		if len(set) < s.cfg.SafeThreshold() {
			continue
		}
		c := s.tuples[ck]
		// Deterministic tie-break on the canonical key.
		if !found || c.TSVal.TS > best.TSVal.TS ||
			(c.TSVal.TS == best.TSVal.TS && ck > bestKey) {
			best, bestKey, found = c, ck, true
		}
	}
	if !found {
		return types.WTuple{}, false
	}
	return best.Clone(), true
}

// respondedWO counts the objects that reported some tuple other than c
// in their w field, in any round (Fig. 4 line 2).
func (s *safeReadState) respondedWO(cKey string) int {
	n := 0
	for _, keys := range s.reported {
		for k := range keys {
			if k != cKey {
				n++
				break
			}
		}
	}
	return n
}

// activeCandidates returns the keys currently in C: reported in round 1
// and not removed by the RespondedWO(c) ≥ t+b+1 rule.
func (s *safeReadState) activeCandidates() []string {
	var out []string
	for k := range s.candidates {
		if s.respondedWO(k) < s.cfg.InvalidThreshold() {
			out = append(out, k)
		}
	}
	return out
}

// buildConflictGraph materializes the conflict relation over the current
// candidate set: conflict(i, k) iff ∃c ∈ C with k ∈ FirstRW(c) and
// c.tsrarray[i][j] > tsrFR.
func (s *safeReadState) buildConflictGraph(active []string) *conflictGraph {
	g := newConflictGraph()
	for _, ck := range active {
		c := s.tuples[ck]
		reporters := s.firstRW[ck]
		if len(reporters) == 0 {
			continue
		}
		for accusedID, vec := range c.TSR {
			if vec.Get(s.j) > s.tsrFR {
				for reporter := range reporters {
					g.addConflict(accusedID, reporter)
				}
			}
		}
	}
	return g
}

// round1Done evaluates the Fig. 4 line 11 condition.
func (s *safeReadState) round1Done() bool {
	return s.conflictFreeQuorum(func() *conflictGraph { return s.buildConflictGraph(s.activeCandidates()) })
}

// safeWitnesses returns the objects vouching for candidate c (Fig. 4
// line 3): those that reported c in w, c.tsval in pw, or any tuple or
// pair with a strictly higher timestamp.
func (s *safeReadState) safeWitnesses(cKey string) objSet {
	c := s.tuples[cKey]
	out := make(objSet)
	for k, set := range s.rw {
		if k == cKey || s.tuples[k].TSVal.TS > c.TSVal.TS {
			for id := range set {
				out.add(id)
			}
		}
	}
	cPairKey := tsvalKey(c.TSVal)
	for k, set := range s.rpw {
		if k == cPairKey || s.pairs[k].TS > c.TSVal.TS {
			for id := range set {
				out.add(id)
			}
		}
	}
	return out
}

// decide evaluates the Fig. 4 line 14 condition and, when it holds,
// returns the value to return: the safe highest candidate's pair, or
// ⟨0,⊥⟩ when C is empty.
func (s *safeReadState) decide() (types.TSVal, bool) {
	active := s.activeCandidates()
	if len(active) == 0 {
		return types.InitTSVal(), true
	}
	maxTS := types.TS(-1)
	for _, k := range active {
		if ts := s.tuples[k].TSVal.TS; ts > maxTS {
			maxTS = ts
		}
	}
	for _, k := range active {
		c := s.tuples[k]
		if c.TSVal.TS != maxTS {
			continue
		}
		if len(s.safeWitnesses(k)) >= s.cfg.SafeThreshold() {
			return c.TSVal.Clone(), true
		}
	}
	return types.TSVal{}, false
}
