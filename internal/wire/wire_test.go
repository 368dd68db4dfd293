package wire

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// sampleMsgs returns one well-formed instance of every message type.
func sampleMsgs() []Msg {
	w := types.WTuple{
		TSVal: types.TSVal{TS: 7, Val: types.Value("v7")},
		TSR:   types.TSRMatrix{0: types.TSRVector{1, 2}, 3: types.TSRVector{0, 5}},
	}
	h := types.NewHistory()
	h[7] = types.HistEntry{PW: w.TSVal.Clone(), W: &w}
	return []Msg{
		PWReq{TS: 7, PW: w.TSVal, W: w},
		PWAck{ObjectID: 2, TS: 7, TSR: types.TSRVector{3, 4}},
		WReq{TS: 7, PW: w.TSVal, W: w},
		WAck{ObjectID: 1, TS: 7},
		ReadReq{Round: Round2, Reader: 1, TSR: 9, CacheTS: 3, Repair: &w},
		ReadAck{ObjectID: 0, Round: Round1, TSR: 9, PW: w.TSVal, W: w},
		ReadAckHist{ObjectID: 4, Round: Round2, TSR: 10, History: h},
		BaselineWriteReq{TS: 3, Val: types.Value("x"), Sig: []byte{1, 2}},
		BaselineWriteAck{ObjectID: 5, TS: 3},
		BaselineReadReq{Attempt: 2, Reader: 0},
		BaselineReadAck{ObjectID: 5, Attempt: 2, TS: 3, Val: types.Value("x"), Sig: []byte{9}},
		PairsReadAck{ObjectID: 6, Attempt: 1, PW: w.TSVal, W: w.TSVal},
		SubscribeReq{Reader: 0, Seq: 11},
		PushState{ObjectID: 2, Seq: 11, TS: 7, Val: types.Value("p"), Echo: true},
		RegOp{Reg: "users/42", Op: 91, Msg: WAck{ObjectID: 1, TS: 7}},
		RegOp{Reg: "users/42", Op: 93, Inc: StampOf(3), Msg: WAck{ObjectID: 1, TS: 7}},
		Batch{Ops: []Msg{
			RegOp{Reg: "a", Op: 92, Msg: PWReq{TS: 7, PW: w.TSVal, W: w}},
			RegOp{Reg: "b", Msg: ReadReq{Round: Round1, Reader: 1, TSR: 9}},
			WAck{ObjectID: 1, TS: 7},
		}},
		BusyFor(Batch{Ops: []Msg{
			RegOp{Reg: "a", Op: 94, Cfg: StampOf(0), Msg: PWReq{TS: 7, PW: w.TSVal, W: w}},
			RegOp{Reg: "b", Msg: ReadReq{Round: Round1, Reader: 1, TSR: 9}},
		}}),
		StateReq{Seq: 12, Requester: 2},
		StateResp{ObjectID: 3, Seq: 12, Incarnation: 2, Regs: []RegState{
			{Reg: "users/42", TS: 7, History: h, TSR: types.TSRVector{1, 0}},
			{Reg: "empty", History: types.NewHistory(), TSR: types.NewTSRVector(2)},
		}},
	}
}

func TestCompactSizePositive(t *testing.T) {
	for _, m := range sampleMsgs() {
		if CompactSize(m) <= 0 {
			t.Errorf("CompactSize(%T) must be positive", m)
		}
	}
}

func TestCompactSizeGrowsWithHistory(t *testing.T) {
	small := types.NewHistory()
	big := types.NewHistory()
	for ts := types.TS(1); ts <= 50; ts++ {
		w := types.WTuple{TSVal: types.TSVal{TS: ts, Val: types.Value("12345678")}, TSR: types.NewTSRMatrix()}
		big[ts] = types.HistEntry{PW: w.TSVal, W: &w}
	}
	a := CompactSize(ReadAckHist{History: small})
	b := CompactSize(ReadAckHist{History: big})
	if b <= a {
		t.Errorf("50-entry history (%dB) must encode larger than initial (%dB)", b, a)
	}
}

func TestCloneIsDeepForAllTypes(t *testing.T) {
	for _, m := range sampleMsgs() {
		c := Clone(m)
		if reflect.TypeOf(c) != reflect.TypeOf(m) {
			t.Fatalf("Clone changed type: %T → %T", m, c)
		}
	}
	// Spot-check aliasing on the mutable payloads.
	orig := sampleMsgs()[0].(PWReq)
	c := Clone(orig).(PWReq)
	c.W.TSR[0][0] = 99
	c.PW.Val[0] = 'z'
	if orig.W.TSR[0][0] == 99 || orig.PW.Val[0] == 'z' {
		t.Error("Clone(PWReq) must deep-copy")
	}
	rrOrig := sampleMsgs()[4].(ReadReq)
	rc := Clone(rrOrig).(ReadReq)
	rc.Repair.TSVal.Val[0] = 'z'
	if rrOrig.Repair.TSVal.Val[0] == 'z' {
		t.Error("Clone(ReadReq) must deep-copy the repair hint")
	}
	hOrig := sampleMsgs()[6].(ReadAckHist)
	hc := Clone(hOrig).(ReadAckHist)
	hc.History[7].W.TSVal.Val[0] = 'z'
	if hOrig.History[7].W.TSVal.Val[0] == 'z' {
		t.Error("Clone(ReadAckHist) must deep-copy the history")
	}
}

func TestQuickBaselineRoundTrip(t *testing.T) {
	f := func(ts int64, val []byte, sig []byte, id uint8) bool {
		m := BaselineReadAck{
			ObjectID: types.ObjectID(id % 16),
			TS:       types.TS(ts),
			Val:      append(types.Value(nil), val...),
			Sig:      append([]byte(nil), sig...),
		}
		data, err := EncodeCompact(m)
		if err != nil {
			return false
		}
		back, err := DecodeCompact(data)
		if err != nil {
			return false
		}
		got, ok := back.(BaselineReadAck)
		if !ok || got.ObjectID != m.ObjectID || got.TS != m.TS {
			return false
		}
		return got.Val.Equal(m.Val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickReadReqRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		m := ReadReq{
			Round:   Round(1 + rng.Intn(2)),
			Reader:  types.ReaderID(rng.Intn(8)),
			TSR:     types.ReaderTS(rng.Int63n(1 << 40)),
			CacheTS: types.TS(rng.Int63n(1 << 40)),
		}
		data, err := EncodeCompact(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeCompact(data)
		if err != nil {
			t.Fatal(err)
		}
		if back.(ReadReq) != m {
			t.Fatalf("round-trip mismatch: %+v vs %+v", back, m)
		}
	}
}
