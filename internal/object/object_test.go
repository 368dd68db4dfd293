package object

import (
	"strings"
	"testing"
	"unsafe"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

func pw(ts types.TS, v string, w types.WTuple) wire.PWReq {
	return wire.PWReq{TS: ts, PW: types.TSVal{TS: ts, Val: types.Value(v)}, W: w}
}

func wreq(ts types.TS, v string, m types.TSRMatrix) wire.WReq {
	pair := types.TSVal{TS: ts, Val: types.Value(v)}
	return wire.WReq{TS: ts, PW: pair, W: types.WTuple{TSVal: pair, TSR: m}}
}

var anyNode = transport.Writer()

func TestSafeAdoptsNewerPW(t *testing.T) {
	o := NewSafe(0, 1)
	reply, ok := o.Handle(anyNode, pw(1, "a", types.InitWTuple()))
	if !ok {
		t.Fatal("fresh PW must be acknowledged")
	}
	ack := reply.(wire.PWAck)
	if ack.TS != 1 || len(ack.TSR) != 1 || ack.TSR[0] != 0 {
		t.Errorf("PW ack = %+v", ack)
	}
	snap := o.Snapshot()
	if snap.TS != 1 || !snap.PW.Val.Equal(types.Value("a")) {
		t.Errorf("state after PW: %+v", snap)
	}
}

func TestSafeRejectsStalePW(t *testing.T) {
	o := NewSafe(0, 1)
	o.Handle(anyNode, pw(5, "new", types.InitWTuple()))
	if _, ok := o.Handle(anyNode, pw(3, "old", types.InitWTuple())); ok {
		t.Error("stale PW (ts′ ≤ ts) must be silently ignored per Fig. 3")
	}
	if snap := o.Snapshot(); snap.TS != 5 {
		t.Errorf("state regressed to %d", snap.TS)
	}
}

func TestSafeWAcceptsEqualTS(t *testing.T) {
	// Fig. 3: W uses ts′ ≥ ts (the same write's W follows its PW).
	o := NewSafe(0, 1)
	o.Handle(anyNode, pw(2, "v", types.InitWTuple()))
	if _, ok := o.Handle(anyNode, wreq(2, "v", types.NewTSRMatrix())); !ok {
		t.Error("W with ts′ = ts must be accepted")
	}
	if _, ok := o.Handle(anyNode, wreq(1, "old", types.NewTSRMatrix())); ok {
		t.Error("W with ts′ < ts must be ignored")
	}
}

func TestSafeReadStoresReaderTimestamp(t *testing.T) {
	o := NewSafe(0, 2)
	reply, ok := o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 1, TSR: 7})
	if !ok {
		t.Fatal("fresh READ must be acknowledged")
	}
	ack := reply.(wire.ReadAck)
	if ack.TSR != 7 || ack.Round != wire.Round1 {
		t.Errorf("ack = %+v", ack)
	}
	if snap := o.Snapshot(); snap.TSR[1] != 7 || snap.TSR[0] != 0 {
		t.Errorf("tsr = %v", snap.TSR)
	}
	// Stale and duplicate reader timestamps are ignored.
	if _, ok := o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 1, TSR: 7}); ok {
		t.Error("equal tsr must be ignored (tsr′ > tsr[j] guard)")
	}
	if _, ok := o.Handle(anyNode, wire.ReadReq{Round: wire.Round2, Reader: 1, TSR: 5}); ok {
		t.Error("lower tsr must be ignored")
	}
	// Out-of-range reader IDs are Byzantine payloads: no reply.
	if _, ok := o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 9, TSR: 1}); ok {
		t.Error("out-of-range reader must be ignored")
	}
}

// TestReadAckUnchangedByLaterWrites pins the objects' side of the
// immutability contract (package types): a read ack shares the object's
// values instead of copying them, so the object must replace its
// fields and history entries on later writes, never edit them in place.
func TestReadAckUnchangedByLaterWrites(t *testing.T) {
	read := wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1}
	m := types.TSRMatrix{0: types.TSRVector{0}}
	later := func(h transport.Handler) {
		h.Handle(anyNode, pw(2, "new", types.WTuple{TSVal: types.TSVal{TS: 1, Val: types.Value("abc")}, TSR: m}))
		h.Handle(anyNode, wreq(2, "new", types.TSRMatrix{0: types.TSRVector{9}}))
		rep := types.WTuple{TSVal: types.TSVal{TS: 3, Val: types.Value("rep")}, TSR: types.NewTSRMatrix()}
		h.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 2, Repair: &rep})
	}

	s := NewSafe(0, 1)
	s.Handle(anyNode, wreq(1, "abc", m))
	reply, _ := s.Handle(anyNode, read)
	ack := reply.(wire.ReadAck)
	later(s)
	if !ack.PW.Val.Equal(types.Value("abc")) || !ack.W.TSVal.Val.Equal(types.Value("abc")) || ack.W.TSR[0][0] != 0 {
		t.Errorf("safe read ack changed under later writes: %+v", ack)
	}

	r := NewRegular(0, 1)
	r.Handle(anyNode, pw(1, "abc", types.InitWTuple()))
	r.Handle(anyNode, wreq(1, "abc", m))
	reply, _ = r.Handle(anyNode, read)
	h := reply.(wire.ReadAckHist).History
	later(r)
	if len(h) != 2 || !h[1].PW.Val.Equal(types.Value("abc")) || h[1].W.TSR[0][0] != 0 {
		t.Errorf("regular read ack changed under later writes: %v", h)
	}
}

func TestSafeSnapshotRestore(t *testing.T) {
	o := NewSafe(0, 1)
	o.Handle(anyNode, pw(3, "x", types.InitWTuple()))
	snap := o.Snapshot()
	o.Handle(anyNode, pw(9, "y", types.InitWTuple()))
	o.Restore(snap)
	if got := o.Snapshot(); got.TS != 3 || !got.PW.Val.Equal(types.Value("x")) {
		t.Errorf("restore failed: %+v", got)
	}
}

func TestRegularBuildsHistory(t *testing.T) {
	o := NewRegular(0, 1)
	// Write 1: PW then W.
	o.Handle(anyNode, pw(1, "a", types.InitWTuple()))
	m1 := types.TSRMatrix{0: types.TSRVector{0}}
	o.Handle(anyNode, wreq(1, "a", m1))
	// Write 2: PW carries write 1's complete tuple.
	w1 := types.WTuple{TSVal: types.TSVal{TS: 1, Val: types.Value("a")}, TSR: m1}
	o.Handle(anyNode, wire.PWReq{TS: 2, PW: types.TSVal{TS: 2, Val: types.Value("b")}, W: w1})

	snap := o.Snapshot()
	if len(snap.History) != 3 { // ts 0, 1, 2
		t.Fatalf("history has %d entries, want 3: %v", len(snap.History), snap.History.Timestamps())
	}
	e1 := snap.History[1]
	if e1.W == nil || !e1.W.Equal(w1) {
		t.Errorf("history[1].w = %v, want the complete tuple", e1.W)
	}
	e2 := snap.History[2]
	if e2.W != nil || !e2.PW.Val.Equal(types.Value("b")) {
		t.Errorf("history[2] = %+v, want ⟨pw2, nil⟩ until the W round", e2)
	}
}

func TestRegularPWFillsSkippedSlot(t *testing.T) {
	// An object that missed write 1 entirely learns its tuple from
	// write 2's PW message (the §5 prose behaviour).
	o := NewRegular(0, 1)
	w1 := types.WTuple{TSVal: types.TSVal{TS: 1, Val: types.Value("a")}, TSR: types.NewTSRMatrix()}
	o.Handle(anyNode, wire.PWReq{TS: 2, PW: types.TSVal{TS: 2, Val: types.Value("b")}, W: w1})
	snap := o.Snapshot()
	if e, ok := snap.History[1]; !ok || e.W == nil || !e.W.Equal(w1) {
		t.Errorf("history[1] not backfilled: %+v", snap.History)
	}
}

func TestRegularReadShipsSuffix(t *testing.T) {
	o := NewRegular(0, 1)
	for ts := types.TS(1); ts <= 5; ts++ {
		o.Handle(anyNode, pw(ts, "v", types.InitWTuple()))
		o.Handle(anyNode, wreq(ts, "v", types.NewTSRMatrix()))
	}
	reply, ok := o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1, CacheTS: 3})
	if !ok {
		t.Fatal("read must be acknowledged")
	}
	h := reply.(wire.ReadAckHist).History
	if _, has2 := h[2]; has2 {
		t.Error("suffix must omit entries below CacheTS")
	}
	for ts := types.TS(3); ts <= 5; ts++ {
		if _, ok := h[ts]; !ok {
			t.Errorf("suffix missing ts %d", ts)
		}
	}
}

func TestRegularGCPrunesBelowWatermark(t *testing.T) {
	o := NewRegular(0, 2)
	o.EnableGC()
	for ts := types.TS(1); ts <= 10; ts++ {
		o.Handle(anyNode, pw(ts, "v", types.InitWTuple()))
		o.Handle(anyNode, wreq(ts, "v", types.NewTSRMatrix()))
	}
	// Reader 0 acknowledges cache ts 8; reader 1 is still at 0 — no
	// pruning below the minimum.
	o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1, CacheTS: 8})
	if got := o.HistoryLen(); got != 11 {
		t.Fatalf("history pruned below the min watermark: %d entries", got)
	}
	// Reader 1 catches up: everything below 8 can go.
	o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 1, TSR: 1, CacheTS: 8})
	if got := o.HistoryLen(); got != 3 { // ts 8, 9, 10
		t.Fatalf("history after GC = %d entries, want 3", got)
	}
	// The newest entry always survives, even above every watermark.
	o.Handle(anyNode, wire.ReadReq{Round: wire.Round2, Reader: 0, TSR: 2, CacheTS: 99})
	o.Handle(anyNode, wire.ReadReq{Round: wire.Round2, Reader: 1, TSR: 2, CacheTS: 99})
	if got := o.HistoryLen(); got != 1 {
		t.Fatalf("history = %d entries, want just the newest", got)
	}
}

func TestRegularNoGCByDefault(t *testing.T) {
	o := NewRegular(0, 1)
	for ts := types.TS(1); ts <= 10; ts++ {
		o.Handle(anyNode, pw(ts, "v", types.InitWTuple()))
		o.Handle(anyNode, wreq(ts, "v", types.NewTSRMatrix()))
	}
	o.Handle(anyNode, wire.ReadReq{Round: wire.Round1, Reader: 0, TSR: 1, CacheTS: 9})
	if got := o.HistoryLen(); got != 11 {
		t.Errorf("history = %d entries, want 11 (GC off)", got)
	}
}

func TestRegularStaleWriterTraffic(t *testing.T) {
	o := NewRegular(0, 1)
	o.Handle(anyNode, pw(5, "new", types.InitWTuple()))
	if _, ok := o.Handle(anyNode, pw(3, "old", types.InitWTuple())); ok {
		t.Error("stale PW must be ignored")
	}
	if _, ok := o.Handle(anyNode, wreq(4, "old", types.NewTSRMatrix())); ok {
		t.Error("stale W must be ignored")
	}
	if _, ok := o.Handle(anyNode, wreq(5, "new", types.NewTSRMatrix())); !ok {
		t.Error("W with equal ts must be accepted")
	}
}

// TestInstalledEntriesHoldOneBuffer follows a writer's PW and W
// messages across a hop (wire.Clone as on memnet, the codec as on
// tcpnet) into a regular object: every complete entry it then holds,
// whether installed from a WReq or backfilled from a PWReq, keeps its
// value once — PW.Val is W.TSVal.Val's buffer.
func TestInstalledEntriesHoldOneBuffer(t *testing.T) {
	hops := map[string]func(wire.Msg) wire.Msg{
		"clone": wire.Clone,
		"codec": func(m wire.Msg) wire.Msg {
			data, err := wire.EncodeCompact(m)
			if err != nil {
				t.Fatal(err)
			}
			back, err := wire.DecodeCompact(data)
			if err != nil {
				t.Fatal(err)
			}
			return back
		},
	}
	for name, hop := range hops {
		o := NewRegular(0, 1)
		last := types.InitWTuple()
		for ts := types.TS(1); ts <= 4; ts++ {
			pair := types.TSVal{TS: ts, Val: types.Value(strings.Repeat("v", 64*int(ts)))}
			o.Handle(anyNode, hop(wire.PWReq{TS: ts, PW: pair, W: last}))
			last = types.WTuple{TSVal: pair, TSR: types.TSRMatrix{0: types.TSRVector{types.ReaderTS(ts)}}}
			if ts != 3 { // write 3's W is lost: write 4's PW backfills it
				o.Handle(anyNode, hop(wire.WReq{TS: ts, PW: pair, W: last}))
			}
		}
		complete := 0
		for ts, e := range o.history {
			if e.W == nil || len(e.PW.Val) == 0 {
				continue
			}
			complete++
			if unsafe.SliceData(e.PW.Val) != unsafe.SliceData(e.W.TSVal.Val) {
				t.Errorf("%s: history[%d] holds its value in two buffers", name, ts)
			}
		}
		if complete != 4 {
			t.Errorf("%s: %d complete entries with a value, want 4", name, complete)
		}
	}
}
