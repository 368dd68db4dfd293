package wire

import (
	"bytes"
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
	// One history entry of each kind: entryPW at 8, entryW at 0 and 7,
	// entryPWAndW at 6 (a forged tuple whose pair is not the slot's).
	forged := types.WTuple{TSVal: types.TSVal{TS: 6, Val: types.Value("v5")}, TSR: w.TSR}
	h := types.NewHistory()
	h[6] = types.HistEntry{PW: types.TSVal{TS: 6, Val: types.Value("v6")}, W: &forged}
	h[7] = types.HistEntry{PW: w.TSVal.Clone(), W: &w}
	h[8] = types.HistEntry{PW: types.TSVal{TS: 8, Val: types.Value("v8")}}
	return []Msg{
		PWReq{TS: 8, PW: h[8].PW, W: w},
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
		ConfigUpdate{Shard: 1, Epoch: 4, Members: []int64{0, 9, 2, 3}, Sig: []byte{0xde, 0xad}},
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

// TestCloneIsDeepForAllTypes clones every sample, then overwrites every
// byte and integer of the original, including all it reaches through
// slices, pointers, maps and nested messages: the clone's encoding must
// not move.
func TestCloneIsDeepForAllTypes(t *testing.T) {
	for i := range sampleMsgs() {
		m := sampleMsgs()[i] // fresh: the samples share payloads
		c := Clone(m)
		if reflect.TypeOf(c) != reflect.TypeOf(m) {
			t.Fatalf("Clone changed type: %T → %T", m, c)
		}
		want := mustEncode(t, c)
		orig := mustEncode(t, m)
		scribble(reflect.ValueOf(&m).Elem())
		if bytes.Equal(mustEncode(t, m), orig) {
			t.Fatalf("scribble left %T unchanged", m)
		}
		if got := mustEncode(t, c); !bytes.Equal(got, want) {
			t.Errorf("Clone(%T) shares memory with the original:\n  before: %x\n  after:  %x", m, want, got)
		}
	}
	if Clone(nil) != nil {
		t.Error("Clone(nil) must be nil")
	}
}

func mustEncode(t *testing.T, m Msg) []byte {
	t.Helper()
	data, err := EncodeCompact(m)
	if err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	return data
}

// scribble overwrites every integer and byte reachable from the
// addressable v with a constant. Interface and map values are not addressable, so they
// are copied, scribbled and stored back.
func scribble(v reflect.Value) {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(-0x5a5a)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(0xa5)
	case reflect.Pointer:
		if !v.IsNil() {
			scribble(v.Elem())
		}
	case reflect.Interface:
		if !v.IsNil() {
			cp := reflect.New(v.Elem().Type()).Elem()
			cp.Set(v.Elem())
			scribble(cp)
			v.Set(cp)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			scribble(v.Field(i))
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			scribble(v.Index(i))
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			cp := reflect.New(v.Type().Elem()).Elem()
			cp.Set(iter.Value())
			scribble(cp)
			v.SetMapIndex(iter.Key(), cp)
		}
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
