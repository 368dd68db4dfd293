package core

// White-box tests of the reader bookkeeping: the Fig. 4 / Fig. 6
// predicates evaluated directly on hand-crafted acknowledgement
// sequences, including malformed and Byzantine ones.

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

func tuple(ts types.TS, v string) types.WTuple {
	return types.WTuple{TSVal: types.TSVal{TS: ts, Val: types.Value(v)}, TSR: types.NewTSRMatrix()}
}

func ackFrom(id types.ObjectID, round wire.Round, tsr types.ReaderTS, pw types.TSVal, w types.WTuple) transport.Message {
	return transport.Message{
		From: transport.Object(id),
		Payload: wire.ReadAck{
			ObjectID: id, Round: round, TSR: tsr, PW: pw, W: w,
		},
	}
}

// round1Done evaluates the line 11 condition the way readOp does.
func round1Done(s readState) bool { return s.base().conflictFreeQuorum(s) }

func newState(t, b int) *safeReadState {
	s := newSafeReadState(quorum.Optimal(t, b, 1), 0)
	s.tsrFR = 1
	return s
}

func TestAbsorbFiltersForgedSender(t *testing.T) {
	s := newState(1, 1)
	w := tuple(1, "x")
	// Claimed object ID must match the transport-level sender.
	msg := ackFrom(2, wire.Round1, 1, w.TSVal, w)
	msg.From = transport.Object(3)
	if s.absorb(msg) {
		t.Error("mismatched sender accepted")
	}
	// Sender must be an object.
	msg = ackFrom(2, wire.Round1, 1, w.TSVal, w)
	msg.From = transport.Reader(2)
	if s.absorb(msg) {
		t.Error("non-object sender accepted")
	}
	// Out-of-range object index.
	if s.absorb(ackFrom(99, wire.Round1, 1, w.TSVal, w)) {
		t.Error("out-of-range object accepted")
	}
	// Stale control timestamp.
	if s.absorb(ackFrom(0, wire.Round1, 7, w.TSVal, w)) {
		t.Error("wrong tsr accepted")
	}
	// Round-2 ack before round 2 started (tsrSR unset).
	if s.absorb(ackFrom(0, wire.Round2, 2, w.TSVal, w)) {
		t.Error("premature round-2 ack accepted")
	}
}

func TestAbsorbDeduplicatesPerRound(t *testing.T) {
	s := newState(1, 1)
	w := tuple(1, "x")
	if !s.absorb(ackFrom(0, wire.Round1, 1, w.TSVal, w)) {
		t.Fatal("first ack rejected")
	}
	if s.absorb(ackFrom(0, wire.Round1, 1, w.TSVal, w)) {
		t.Error("duplicate (object, round) ack accepted")
	}
	s.tsrSR = 2
	if !s.absorb(ackFrom(0, wire.Round2, 2, w.TSVal, w)) {
		t.Error("round-2 ack from the same object rejected")
	}
}

func TestRespondedWOCountsDissenters(t *testing.T) {
	s := newState(2, 1) // S=6, invalid threshold t+b+1 = 4
	c := tuple(1, "candidate")
	other := tuple(2, "other")
	s.absorb(ackFrom(0, wire.Round1, 1, c.TSVal, c))
	for i := 1; i <= 3; i++ {
		s.absorb(ackFrom(types.ObjectID(i), wire.Round1, 1, other.TSVal, other))
	}
	if got := s.respondedWO(c); got != 3 {
		t.Errorf("respondedWO = %d, want 3", got)
	}
	if len(s.activeCandidates()) != 2 {
		t.Errorf("both candidates still active: %d", len(s.activeCandidates()))
	}
	// Fourth dissenter hits t+b+1: c is removed from C.
	s.absorb(ackFrom(4, wire.Round1, 1, other.TSVal, other))
	for _, k := range s.activeCandidates() {
		if k.Equal(c) {
			t.Error("candidate should be removed at t+b+1 dissenters")
		}
	}
}

func TestSafeWitnessesHigherTimestampRule(t *testing.T) {
	s := newState(2, 2) // b+1 = 3
	c := tuple(3, "c")
	higher := tuple(5, "later")
	// One object reports c itself, one reports c's pair in pw, one
	// reports a strictly higher tuple: all three are witnesses for c.
	s.absorb(ackFrom(0, wire.Round1, 1, types.InitTSVal(), c))
	s.absorb(ackFrom(1, wire.Round1, 1, c.TSVal, tuple(0, "")))
	s.absorb(ackFrom(2, wire.Round1, 1, higher.TSVal, higher))
	if got := s.safeWitnesses(c); got != 3 {
		t.Errorf("safeWitnesses = %d, want 3", got)
	}
	// A *lower* tuple is not a witness.
	s.absorb(ackFrom(3, wire.Round1, 1, types.InitTSVal(), tuple(1, "old")))
	if got := s.safeWitnesses(c); got != 3 {
		t.Errorf("safeWitnesses after low report = %d, want 3", got)
	}
}

func TestDecideReturnsBottomWhenCandidatesGone(t *testing.T) {
	s := newState(1, 1) // S=4, threshold 3
	c := tuple(1, "byz-only")
	other := types.InitWTuple()
	s.absorb(ackFrom(0, wire.Round1, 1, c.TSVal, c))
	s.tsrSR = 2
	// w0 reported by three objects: RespondedWO(c) = 3 removes c; but
	// w0 itself stays a candidate, is high and safe → returns ⟨0,⊥⟩ as
	// the w0 value.
	for i := 1; i <= 3; i++ {
		s.absorb(ackFrom(types.ObjectID(i), wire.Round1, 1, other.TSVal, other))
	}
	got, done := s.decide()
	if !done {
		t.Fatal("undecided")
	}
	if got.TS != 0 || !got.Val.IsBottom() {
		t.Errorf("decide = %v, want ⟨0,⊥⟩", got)
	}
}

func TestDecideBlocksOnUnsafeHighCandidate(t *testing.T) {
	s := newState(1, 1)
	forged := tuple(99, "forged")
	real := tuple(1, "real")
	s.absorb(ackFrom(0, wire.Round1, 1, forged.TSVal, forged)) // Byzantine
	s.absorb(ackFrom(1, wire.Round1, 1, real.TSVal, real))
	s.absorb(ackFrom(2, wire.Round1, 1, real.TSVal, real))
	if _, done := s.decide(); done {
		t.Fatal("decided while the forged high candidate is neither safe nor removed")
	}
	// The third honest dissenter removes the forgery; the real value,
	// already vouched for by 2 = b+1 objects, is returned.
	s.absorb(ackFrom(3, wire.Round1, 1, real.TSVal, real))
	got, done := s.decide()
	if !done {
		t.Fatal("undecided after forgery removal")
	}
	if !got.Val.Equal(types.Value("real")) {
		t.Errorf("decide = %v", got)
	}
}

// TestSafeDecideIgnoresMapOrder: with write 2 in flight, a forged
// ⟨1,evil⟩ and the genuine ⟨1,v1⟩ are both safe (the higher pw vouches
// for both), and safety allows either. The same replies must still give
// the same answer every time.
func TestSafeDecideIgnoresMapOrder(t *testing.T) {
	evil, v1 := tuple(1, "evil"), tuple(1, "v1")
	v2 := types.TSVal{TS: 2, Val: types.Value("v2")}
	answers := map[string]int{}
	for n := 0; n < 100; n++ {
		s := newState(1, 1) // S=4, b+1 = 2
		s.absorb(ackFrom(0, wire.Round1, 1, evil.TSVal, evil))
		s.absorb(ackFrom(1, wire.Round1, 1, v1.TSVal, v1))
		s.absorb(ackFrom(2, wire.Round1, 1, v2, v1))
		got, done := s.decide()
		if !done {
			t.Fatal("undecided with both top candidates safe")
		}
		answers[got.String()]++
	}
	if len(answers) != 1 {
		t.Fatalf("decide answers vary with map order: %v", answers)
	}
}

func TestConflictGraphFromForgedMatrix(t *testing.T) {
	s := newState(1, 1) // S=4, quorum 3, reader 0, tsrFR 1
	// Byzantine object 0 presents a candidate accusing objects 1 and 2
	// of having reported reader-0 timestamp 5 > tsrFR.
	forged := types.WTuple{
		TSVal: types.TSVal{TS: 7, Val: types.Value("evil")},
		TSR: types.TSRMatrix{
			1: types.TSRVector{5},
			2: types.TSRVector{5},
		},
	}
	s.absorb(ackFrom(0, wire.Round1, 1, forged.TSVal, forged))
	w0 := types.InitWTuple()
	s.absorb(ackFrom(1, wire.Round1, 1, w0.TSVal, w0))
	s.absorb(ackFrom(2, wire.Round1, 1, w0.TSVal, w0))
	// Three responders, but {0,1} and {0,2} conflict: no 3-subset.
	if round1Done(s) {
		t.Fatal("round 1 must not complete on a conflicted trio")
	}
	// A fourth (honest) responder gives the conflict-free {1,2,3}.
	s.absorb(ackFrom(3, wire.Round1, 1, w0.TSVal, w0))
	if !round1Done(s) {
		t.Fatal("round 1 must complete once a conflict-free quorum exists")
	}
}

func TestConflictIgnoresOtherReadersColumns(t *testing.T) {
	s := newState(1, 1)
	s.j = 0
	// The matrix accuses via reader 1's column — irrelevant to reader 0.
	forged := types.WTuple{
		TSVal: types.TSVal{TS: 7, Val: types.Value("x")},
		TSR:   types.TSRMatrix{1: types.TSRVector{0, 99}},
	}
	s.absorb(ackFrom(0, wire.Round1, 1, forged.TSVal, forged))
	w0 := types.InitWTuple()
	s.absorb(ackFrom(1, wire.Round1, 1, w0.TSVal, w0))
	s.absorb(ackFrom(2, wire.Round1, 1, w0.TSVal, w0))
	if !round1Done(s) {
		t.Fatal("accusations in other readers' columns must not create conflicts")
	}
}

// Regular-state tests --------------------------------------------------

func histAck(id types.ObjectID, round wire.Round, tsr types.ReaderTS, h types.History) transport.Message {
	return transport.Message{
		From:    transport.Object(id),
		Payload: wire.ReadAckHist{ObjectID: id, Round: round, TSR: tsr, History: h},
	}
}

func histWith(entries ...types.WTuple) types.History {
	h := types.NewHistory()
	for _, w := range entries {
		w := w
		h[w.TSVal.TS] = types.HistEntry{PW: w.TSVal.Clone(), W: &w}
	}
	return h
}

func TestRegularStateLastTSRGuard(t *testing.T) {
	cfg := quorum.Optimal(1, 1, 1)
	s := newRegularReadState(cfg, 0)
	s.tsrFR = 1
	s.tsrSR = 2
	h := histWith(tuple(1, "a"))
	if !s.absorb(histAck(0, wire.Round2, 2, h)) {
		t.Fatal("round-2 ack rejected")
	}
	// A late round-1 ack from the same object carries a lower tsr and
	// is ignored (Fig. 6 line 18 guard) — unlike the safe reader.
	if s.absorb(histAck(0, wire.Round1, 1, h)) {
		t.Error("late round-1 ack accepted despite lower tsr")
	}
}

func TestRegularInvalidAndSafePredicates(t *testing.T) {
	cfg := quorum.Optimal(2, 1, 1) // S=6, invalid 4, safe 2
	s := newRegularReadState(cfg, 0)
	s.tsrFR = 1
	c := tuple(2, "target")

	// Two objects confirm the exact entry: safe.
	s.absorb(histAck(0, wire.Round1, 1, histWith(c)))
	s.absorb(histAck(1, wire.Round1, 1, histWith(c)))
	if !s.safe(c) {
		t.Error("b+1 exact confirmations must make c safe")
	}
	// Mismatch witnesses: missing entry, nil W, different value.
	s.absorb(histAck(2, wire.Round1, 1, types.NewHistory())) // no entry at ts 2
	diff := tuple(2, "different")
	s.absorb(histAck(3, wire.Round1, 1, histWith(diff)))
	nilW := types.NewHistory()
	nilW[2] = types.HistEntry{PW: c.TSVal.Clone()} // pw matches, w nil
	s.absorb(histAck(4, wire.Round1, 1, nilW))
	if s.invalid(c) {
		t.Error("3 < t+b+1 witnesses should not invalidate")
	}
	s.absorb(histAck(5, wire.Round1, 1, types.NewHistory()))
	if !s.invalid(c) {
		t.Error("4 = t+b+1 witnesses must invalidate")
	}
	// Note: the nil-W object still *confirms* via pw (∃rnd semantics —
	// an object can witness both predicates).
	if !s.safe(c) {
		t.Error("pw-only confirmation must count toward safe(c)")
	}
}

func TestRegularDecideOptimizedFallback(t *testing.T) {
	cfg := quorum.Optimal(1, 1, 1) // S=4, quorum 3
	s := newRegularReadState(cfg, 0)
	s.tsrFR = 1
	s.tsrSR = 2
	// The reader has seen ts 5, so every suffix is empty.
	empty := make(types.History)
	for i := 0; i < 3; i++ {
		s.absorb(histAck(types.ObjectID(i), wire.Round2, 2, empty))
	}
	s.optimized = true
	got, done := s.decide()
	if !done {
		t.Fatal("optimized reader must terminate on an empty candidate set after a round-2 quorum")
	}
	if got.TS != 0 {
		t.Errorf("fallback marker = %v, want ⟨0,⊥⟩ (caller substitutes the cache)", got)
	}
	s.optimized = false
	if _, done := s.decide(); done {
		t.Error("unoptimized reader must keep waiting (w0 will arrive)")
	}
}
