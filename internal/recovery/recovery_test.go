package recovery_test

import (
	"sync"
	"testing"
	"time"

	"repro/internal/object"
	"repro/internal/recovery"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// regStore is a minimal multi-register base object for these tests:
// one object.Regular automaton per register name, addressed with the
// wire.RegOp envelope — the same shape as internal/store's registry.
type regStore struct {
	mu      sync.Mutex
	readers int
	id      types.ObjectID
	regs    map[string]*object.Regular
}

func newRegStore(id types.ObjectID, readers int) *regStore {
	return &regStore{id: id, readers: readers, regs: make(map[string]*object.Regular)}
}

func (s *regStore) get(reg string) *object.Regular {
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.regs[reg]
	if r == nil {
		r = object.NewRegular(s.id, s.readers)
		s.regs[reg] = r
	}
	return r
}

func (s *regStore) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	op, ok := req.(wire.RegOp)
	if !ok {
		return nil, false
	}
	reply, send := s.get(op.Reg).Handle(from, op.Msg)
	if !send {
		return nil, false
	}
	return wire.RegOp{Reg: op.Reg, Msg: reply}, true
}

func (s *regStore) SnapshotRegs() []wire.RegState {
	s.mu.Lock()
	names := make([]string, 0, len(s.regs))
	autos := make([]*object.Regular, 0, len(s.regs))
	for name, r := range s.regs {
		names = append(names, name)
		autos = append(autos, r)
	}
	s.mu.Unlock()
	out := make([]wire.RegState, len(names))
	for i := range names {
		snap := autos[i].Snapshot()
		out[i] = wire.RegState{Reg: names[i], TS: snap.TS, History: snap.History, TSR: snap.TSR}
	}
	return out
}

func (s *regStore) RestoreRegs(regs []wire.RegState) {
	for _, rs := range regs {
		s.get(rs.Reg).Restore(object.RegularSnapshot{TS: rs.TS, History: rs.History, TSR: rs.TSR})
	}
}

func (s *regStore) Forget() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.regs = make(map[string]*object.Regular)
}

// seed installs a write history of ts entries into register reg: the
// state an object holds after receiving writes 1..ts, with the newest
// write complete.
func seed(s *regStore, reg string, ts types.TS) {
	h := types.NewHistory()
	prev := types.WTuple{TSVal: types.InitTSVal(), TSR: types.NewTSRMatrix()}
	for t := types.TS(1); t <= ts; t++ {
		w := types.WTuple{TSVal: types.TSVal{TS: t, Val: types.Value("v" + reg)}, TSR: types.NewTSRMatrix()}
		h[t-1] = types.HistEntry{PW: prev.TSVal.Clone(), W: &prev}
		h[t] = types.HistEntry{PW: w.TSVal.Clone(), W: &w}
		prev = w
	}
	s.get(reg).Restore(object.RegularSnapshot{TS: ts, History: h, TSR: types.NewTSRVector(s.readers)})
}

func maxTS(s *regStore, reg string) types.TS {
	return s.get(reg).Snapshot().TS
}

// TestGuardFencesUntilInstall: a forgotten guard answers nothing — no
// protocol message (quorum exclusion) and no StateReq (nothing to
// donate) — until Install lifts the fence, after which replies carry
// the bumped incarnation.
func TestGuardFencesUntilInstall(t *testing.T) {
	st := newRegStore(0, 1)
	g := recovery.NewGuard(0, st, st)
	read := wire.RegOp{Reg: "a", Msg: wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1}}

	reply, ok := g.Handle(transport.Reader(0), read)
	if !ok {
		t.Fatal("healthy guard must answer reads")
	}
	if inc, stamped := reply.(wire.RegOp).Inc.Get(); !stamped || inc != 0 {
		t.Fatalf("healthy reply not stamped with incarnation 0: %+v", reply)
	}

	g.Forget()
	if !g.Fenced() {
		t.Fatal("Forget must fence")
	}
	if g.Incarnation() != 1 {
		t.Fatalf("incarnation after Forget: %d", g.Incarnation())
	}
	if _, ok := g.Handle(transport.Reader(0), wire.RegOp{Reg: "a", Msg: wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 2}}); ok {
		t.Fatal("fenced guard answered a protocol message")
	}
	if _, ok := g.Handle(transport.Recovery(1), wire.StateReq{Seq: 1, Requester: 1}); ok {
		t.Fatal("fenced guard donated state")
	}

	if !g.Install([]wire.RegState{{Reg: "a", TS: 0, History: types.NewHistory(), TSR: types.NewTSRVector(1)}}, 1, nil) {
		t.Fatal("install at the current incarnation must succeed")
	}
	if g.Fenced() {
		t.Fatal("install must lift the fence")
	}
	reply, ok = g.Handle(transport.Reader(0), wire.RegOp{Reg: "a", Msg: wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 3}})
	if !ok {
		t.Fatal("recovered guard must answer reads")
	}
	if inc, _ := reply.(wire.RegOp).Inc.Get(); inc != 1 {
		t.Fatalf("recovered reply carries incarnation %d, want 1", inc)
	}
}

// TestGuardSuppressesReplyComputedAcrossForget: a Forget that lands
// while the inner handler is computing a reply must suppress that
// reply — it was derived from (partially) wiped state but would carry
// the pre-crash incarnation, which clients still accept.
func TestGuardSuppressesReplyComputedAcrossForget(t *testing.T) {
	st := newRegStore(0, 1)
	var g *recovery.Guard
	inner := transport.HandlerFunc(func(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
		g.Forget() // the amnesia restart races the in-flight request
		return st.Handle(from, req)
	})
	g = recovery.NewGuard(0, st, inner)
	read := wire.RegOp{Reg: "a", Msg: wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1}}
	if reply, ok := g.Handle(transport.Reader(0), read); ok {
		t.Fatalf("reply computed across a Forget escaped: %+v", reply)
	}
	if !g.Fenced() || g.Incarnation() != 1 {
		t.Fatalf("forget lost: fenced=%v inc=%d", g.Fenced(), g.Incarnation())
	}
}

// TestGuardInstallRejectsStaleIncarnation: a second amnesia crash
// mid-collection supersedes the pending install.
func TestGuardInstallRejectsStaleIncarnation(t *testing.T) {
	st := newRegStore(0, 1)
	g := recovery.NewGuard(0, st, st)
	g.Forget() // inc 1
	g.Forget() // inc 2 — the catch-up below was collected for inc 1
	if g.Install(nil, 1, nil) {
		t.Fatal("install for a superseded incarnation must be rejected")
	}
	if !g.Fenced() {
		t.Fatal("rejected install must keep the fence up")
	}
	if !g.Install(nil, 2, nil) {
		t.Fatal("install at the live incarnation must succeed")
	}
}

// TestGuardStateRespCarriesSnapshot: a healthy guard donates its full
// register set with its incarnation.
func TestGuardStateRespCarriesSnapshot(t *testing.T) {
	st := newRegStore(2, 1)
	seed(st, "a", 4)
	seed(st, "b", 9)
	g := recovery.NewGuard(2, st, st)
	reply, ok := g.Handle(transport.Recovery(0), wire.StateReq{Seq: 7, Requester: 0})
	if !ok {
		t.Fatal("healthy guard must donate state")
	}
	resp := reply.(wire.StateResp)
	if resp.ObjectID != 2 || resp.Seq != 7 || resp.Incarnation != 0 {
		t.Fatalf("bad response header: %+v", resp)
	}
	if len(resp.Regs) != 2 {
		t.Fatalf("donated %d registers, want 2", len(resp.Regs))
	}
}

// TestDominantMerge: per register the highest-timestamp donor wins;
// registers unknown to some donors still recover.
func TestDominantMerge(t *testing.T) {
	mk := func(id types.ObjectID, reg string, ts types.TS) wire.StateResp {
		s := newRegStore(id, 1)
		seed(s, reg, ts)
		return wire.StateResp{ObjectID: id, Regs: s.SnapshotRegs()}
	}
	merged := recovery.Dominant([]wire.StateResp{
		mk(1, "a", 5),
		mk(2, "a", 7),
		mk(3, "b", 2),
	})
	if len(merged) != 2 {
		t.Fatalf("merged %d registers, want 2", len(merged))
	}
	byReg := map[string]wire.RegState{}
	for _, rs := range merged {
		byReg[rs.Reg] = rs
	}
	if byReg["a"].TS != 7 {
		t.Fatalf("register a merged at ts %d, want the dominant 7", byReg["a"].TS)
	}
	if byReg["b"].TS != 2 {
		t.Fatalf("register b merged at ts %d, want 2", byReg["b"].TS)
	}
	// The dominant donor's history must contain the latest complete
	// write (the freshness invariant the whole subsystem rests on).
	if e, ok := byReg["a"].History[7]; !ok || e.W == nil {
		t.Fatal("dominant history lacks the complete tuple at its top timestamp")
	}
}

// TestManagerCatchUpOverMemnet is the end-to-end protocol test: four
// guarded objects on memnet (t = b = 1, so quorum t+b+1 = 3), object 0
// forgets, and its manager rebuilds the dominant state from the three
// siblings while the test only observes public surfaces.
func TestManagerCatchUpOverMemnet(t *testing.T) {
	net := memnet.New()
	defer net.Close()

	stores := make([]*regStore, 4)
	guards := make([]*recovery.Guard, 4)
	for i := range stores {
		stores[i] = newRegStore(types.ObjectID(i), 1)
		guards[i] = recovery.NewGuard(types.ObjectID(i), stores[i], stores[i])
		if err := net.Serve(transport.Object(types.ObjectID(i)), guards[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Distinct per-sibling freshness: the dominant donor for "a" is
	// object 2 (ts 7), for "b" object 3 (ts 6).
	seed(stores[1], "a", 5)
	seed(stores[2], "a", 7)
	seed(stores[3], "a", 3)
	seed(stores[1], "b", 4)
	seed(stores[3], "b", 6)
	seed(stores[0], "a", 7) // the state about to be lost

	conn, err := net.Register(transport.Recovery(0))
	if err != nil {
		t.Fatal(err)
	}
	siblings := []transport.NodeID{transport.Object(1), transport.Object(2), transport.Object(3)}
	mgr := recovery.NewManager(guards[0], conn, siblings, recovery.Policy{}.WithDefaults(1, 1))
	defer mgr.Close()

	guards[0].Forget()
	deadline := time.Now().Add(10 * time.Second)
	for guards[0].Fenced() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if guards[0].Fenced() {
		t.Fatal("catch-up did not complete")
	}
	if got := maxTS(stores[0], "a"); got != 7 {
		t.Fatalf("register a recovered at ts %d, want dominant 7", got)
	}
	if got := maxTS(stores[0], "b"); got != 6 {
		t.Fatalf("register b recovered at ts %d, want dominant 6", got)
	}
	s := mgr.Stats()
	if s.CatchUps != 1 || s.RegsRestored != 2 {
		t.Fatalf("manager stats: %+v", s)
	}

	// The recovered object serves again, at the new incarnation.
	reply, ok := guards[0].Handle(transport.Reader(0), wire.RegOp{Reg: "a", Msg: wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1}})
	if !ok {
		t.Fatal("recovered object does not serve")
	}
	if inc, _ := reply.(wire.RegOp).Inc.Get(); inc != 1 {
		t.Fatalf("recovered reply at incarnation %d, want 1", inc)
	}
}

// TestManagerRetriesUntilQuorum: with one sibling permanently silent
// and quorum 2, the manager still completes using the other sibling
// plus re-broadcasts (responses to the first broadcast are dropped by
// serving the sibling only after a delay).
func TestManagerRetriesUntilQuorum(t *testing.T) {
	net := memnet.New()
	defer net.Close()

	st0 := newRegStore(0, 1)
	g0 := recovery.NewGuard(0, st0, st0)
	if err := net.Serve(transport.Object(0), g0); err != nil {
		t.Fatal(err)
	}
	st1 := newRegStore(1, 1)
	g1 := recovery.NewGuard(1, st1, st1)
	seed(st1, "a", 3)
	if err := net.Serve(transport.Object(1), g1); err != nil {
		t.Fatal(err)
	}
	// Object 2 exists only later: the first broadcasts to it vanish
	// (unknown destination = forever in transit), forcing retries.
	st2 := newRegStore(2, 1)
	g2 := recovery.NewGuard(2, st2, st2)
	seed(st2, "a", 8)

	conn, err := net.Register(transport.Recovery(0))
	if err != nil {
		t.Fatal(err)
	}
	policy := recovery.Policy{Quorum: 2, Retry: 10 * time.Millisecond}
	mgr := recovery.NewManager(g0, conn, []transport.NodeID{transport.Object(1), transport.Object(2)}, policy)
	defer mgr.Close()

	g0.Forget()
	time.Sleep(50 * time.Millisecond) // several retry rounds with only one donor
	if !g0.Fenced() {
		t.Fatal("catch-up completed below quorum")
	}
	if err := net.Serve(transport.Object(2), g2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for g0.Fenced() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g0.Fenced() {
		t.Fatal("catch-up did not complete after the second donor appeared")
	}
	if got := maxTS(st0, "a"); got != 8 {
		t.Fatalf("recovered at ts %d, want dominant 8", got)
	}
}
