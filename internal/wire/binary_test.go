package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

// msgEqual deep-compares two messages using the domain equality of the
// payload types (a round trip may turn empty maps into nil).
func msgEqual(a, b Msg) bool {
	switch x := a.(type) {
	case PWReq:
		y, ok := b.(PWReq)
		return ok && x.TS == y.TS && x.PW.Equal(y.PW) && x.W.Equal(y.W)
	case PWAck:
		y, ok := b.(PWAck)
		return ok && x.ObjectID == y.ObjectID && x.TS == y.TS && x.TSR.Equal(y.TSR)
	case WReq:
		y, ok := b.(WReq)
		return ok && x.TS == y.TS && x.PW.Equal(y.PW) && x.W.Equal(y.W)
	case WAck:
		y, ok := b.(WAck)
		return ok && x == y
	case ReadReq:
		y, ok := b.(ReadReq)
		if !ok || x.Round != y.Round || x.Reader != y.Reader || x.TSR != y.TSR || x.CacheTS != y.CacheTS {
			return false
		}
		if (x.Repair == nil) != (y.Repair == nil) {
			return false
		}
		return x.Repair == nil || x.Repair.Equal(*y.Repair)
	case ReadAck:
		y, ok := b.(ReadAck)
		return ok && x.ObjectID == y.ObjectID && x.Round == y.Round && x.TSR == y.TSR &&
			x.PW.Equal(y.PW) && x.W.Equal(y.W)
	case ReadAckHist:
		y, ok := b.(ReadAckHist)
		if !ok || x.ObjectID != y.ObjectID || x.Round != y.Round || x.TSR != y.TSR {
			return false
		}
		if len(x.History) != len(y.History) {
			return false
		}
		for ts, e := range x.History {
			if !e.Equal(y.History[ts]) {
				return false
			}
		}
		return true
	case BaselineWriteReq:
		y, ok := b.(BaselineWriteReq)
		return ok && x.TS == y.TS && x.Val.Equal(y.Val) && string(x.Sig) == string(y.Sig)
	case BaselineWriteAck:
		y, ok := b.(BaselineWriteAck)
		return ok && x == y
	case BaselineReadReq:
		y, ok := b.(BaselineReadReq)
		return ok && x == y
	case BaselineReadAck:
		y, ok := b.(BaselineReadAck)
		return ok && x.ObjectID == y.ObjectID && x.Attempt == y.Attempt && x.TS == y.TS &&
			x.Val.Equal(y.Val) && string(x.Sig) == string(y.Sig)
	case PairsReadAck:
		y, ok := b.(PairsReadAck)
		return ok && x.ObjectID == y.ObjectID && x.Attempt == y.Attempt &&
			x.PW.Equal(y.PW) && x.W.Equal(y.W)
	case SubscribeReq:
		y, ok := b.(SubscribeReq)
		return ok && x == y
	case PushState:
		y, ok := b.(PushState)
		return ok && x.ObjectID == y.ObjectID && x.Seq == y.Seq && x.TS == y.TS &&
			x.Val.Equal(y.Val) && x.Echo == y.Echo
	case RegOp:
		y, ok := b.(RegOp)
		return ok && x.Reg == y.Reg && x.Op == y.Op && x.Inc == y.Inc && x.Cfg == y.Cfg && msgEqual(x.Msg, y.Msg)
	case Batch:
		y, ok := b.(Batch)
		if !ok || len(x.Ops) != len(y.Ops) {
			return false
		}
		for i := range x.Ops {
			if !msgEqual(x.Ops[i], y.Ops[i]) {
				return false
			}
		}
		return true
	case Busy:
		y, ok := b.(Busy)
		return ok && slices.Equal(x.Ops, y.Ops)
	case ConfigUpdate:
		y, ok := b.(ConfigUpdate)
		return ok && x.Shard == y.Shard && x.Epoch == y.Epoch &&
			slices.Equal(x.Members, y.Members) && string(x.Sig) == string(y.Sig)
	case StateReq:
		y, ok := b.(StateReq)
		return ok && x == y
	case StateResp:
		y, ok := b.(StateResp)
		if !ok || x.ObjectID != y.ObjectID || x.Seq != y.Seq || x.Incarnation != y.Incarnation ||
			len(x.Regs) != len(y.Regs) {
			return false
		}
		for i := range x.Regs {
			if !regStateEqual(x.Regs[i], y.Regs[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// regStateEqual deep-compares two register snapshots.
func regStateEqual(a, b RegState) bool {
	if a.Reg != b.Reg || a.TS != b.TS || !a.TSR.Equal(b.TSR) || len(a.History) != len(b.History) {
		return false
	}
	for ts, e := range a.History {
		if !e.Equal(b.History[ts]) {
			return false
		}
	}
	return true
}

func TestCompactRoundTripAllTypes(t *testing.T) {
	for _, m := range sampleMsgs() {
		data, err := EncodeCompact(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		back, err := DecodeCompact(data)
		if err != nil {
			t.Fatalf("decode %T: %v", m, err)
		}
		if !msgEqual(m, back) {
			t.Fatalf("%T round-trip mismatch:\n  in:  %+v\n  out: %+v", m, m, back)
		}
	}
}

// TestEveryTagRoundTrips holds the decode switch and the samples to the
// tag list: every live tag below tagEnd has a sample that encodes under
// it and decodes to the same type and an equal message, and the retired
// tags and tagEnd itself are rejected as unknown.
func TestEveryTagRoundTrips(t *testing.T) {
	rejected := map[byte]bool{17: true, 20: true, tagEnd: true} // 17, 20: retired
	byTag := map[byte]Msg{}
	for _, m := range sampleMsgs() {
		data, err := EncodeCompact(m)
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		if tag := data[0]; tag >= tagEnd || rejected[tag] {
			t.Errorf("%T encodes under tag %d, outside the live tags below tagEnd", m, tag)
		} else if byTag[tag] == nil {
			byTag[tag] = m
		}
	}
	for tag := byte(1); tag <= tagEnd; tag++ {
		if rejected[tag] {
			if _, err := DecodeCompact([]byte{tag}); err == nil || !strings.Contains(err.Error(), "unknown tag") {
				t.Errorf("tag %d must be rejected as unknown, got %v", tag, err)
			}
			continue
		}
		m := byTag[tag]
		if m == nil {
			t.Errorf("tag %d: no sample message encodes under it", tag)
			continue
		}
		data, _ := EncodeCompact(m)
		back, err := DecodeCompact(data)
		if err != nil {
			t.Errorf("tag %d (%T): %v", tag, m, err)
			continue
		}
		if reflect.TypeOf(back) != reflect.TypeOf(m) || !msgEqual(m, back) {
			t.Errorf("tag %d: %T decoded as %T %+v", tag, m, back, back)
		}
	}
}

func TestCompactRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{99},       // unknown tag
		{tagPWAck}, // truncated
		{tagReadAckHist, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}, // absurd length
		{tagBatch, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, // batch count 2^63: must error, not panic
		{tagBatch, 0x04, 0x01, byte(tagWAck)},                                  // count beyond frame
		{tagWReq, 0x0e, entryW + 1, 0x0e, 0x00, 0x00},                          // unknown entry kind
		{tagReadAckHist, 0x00, 0x02, 0x00, 0x01, 0x00, 0xff, 0x00, 0x00, 0x00}, // unknown history entry kind
		{tagWReq, 0x0e, entryPW, 0x0e, 0x00},                                   // W request without its tuple
	}
	for i, data := range cases {
		if _, err := DecodeCompact(data); err == nil {
			t.Errorf("case %d: garbage decoded", i)
		}
	}
}

func TestCompactRejectsDeepNesting(t *testing.T) {
	// The deepest legitimate frame is Batch→RegOp→message; a Byzantine
	// peer hand-crafting deeper self-nesting must hit the cap instead
	// of recursing toward stack exhaustion.
	leaf := Msg(WAck{ObjectID: 1, TS: 2})
	data, err := EncodeCompact(Batch{Ops: []Msg{RegOp{Reg: "r", Msg: leaf}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCompact(data); err != nil {
		t.Fatalf("nesting at the cap must decode: %v", err)
	}
	for _, depth := range []int{maxNest + 1, 64} {
		deep := leaf
		for i := 0; i < depth; i++ {
			deep = RegOp{Reg: "r", Msg: deep}
		}
		data, err = EncodeCompact(deep)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeCompact(data); err == nil {
			t.Fatalf("%d-deep nesting must be rejected", depth)
		}
	}
}

func TestCompactRejectsTrailingBytes(t *testing.T) {
	data, err := EncodeCompact(WAck{ObjectID: 1, TS: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeCompact(append(data, 0xAB)); err == nil {
		t.Error("trailing bytes must be rejected")
	}
}

func TestCompactBottomVsEmptyValue(t *testing.T) {
	// ⊥ (nil) and an empty value are semantically distinct and must
	// survive the round trip distinctly.
	for _, val := range []types.Value{nil, {}} {
		m := BaselineReadAck{ObjectID: 1, TS: 2, Val: val, Sig: []byte{}}
		data, err := EncodeCompact(m)
		if err != nil {
			t.Fatal(err)
		}
		back, err := DecodeCompact(data)
		if err != nil {
			t.Fatal(err)
		}
		got := back.(BaselineReadAck).Val
		if got.IsBottom() != val.IsBottom() {
			t.Errorf("⊥-ness changed: in=%v out=%v", val == nil, got == nil)
		}
	}
}

// randomHistMsg builds a random history-carrying ack.
func randomHistMsg(rng *rand.Rand) ReadAckHist {
	h := types.NewHistory()
	for i := 0; i < rng.Intn(12); i++ {
		ts := types.TS(rng.Intn(40))
		m := types.NewTSRMatrix()
		for k := 0; k < rng.Intn(4); k++ {
			vec := types.NewTSRVector(1 + rng.Intn(3))
			for x := range vec {
				vec[x] = types.ReaderTS(rng.Intn(6)) - 1
			}
			m[types.ObjectID(rng.Intn(9))] = vec
		}
		w := types.WTuple{TSVal: types.TSVal{TS: ts, Val: types.Value{byte(rng.Intn(256))}}, TSR: m}
		entry := types.HistEntry{PW: w.TSVal.Clone()}
		if rng.Intn(2) == 0 {
			entry.W = &w
		}
		h[ts] = entry
	}
	return ReadAckHist{
		ObjectID: types.ObjectID(rng.Intn(12)),
		Round:    Round(1 + rng.Intn(2)),
		TSR:      types.ReaderTS(rng.Int63n(1 << 30)),
		History:  h,
	}
}

func TestQuickCompactHistoryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomHistMsg(rng)
		data, err := EncodeCompact(m)
		if err != nil {
			return false
		}
		back, err := DecodeCompact(data)
		if err != nil {
			return false
		}
		return msgEqual(m, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickCompactNeverPanicsOnFuzz(t *testing.T) {
	f := func(data []byte) bool {
		m, err := DecodeCompact(data)
		if err == nil && m == nil {
			return false
		}
		if err == nil {
			// Whatever decoded must re-encode.
			if _, err := EncodeCompact(m); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// FuzzDecodeCompact feeds the decoder what a Byzantine peer can send,
// seeded with every sample's encoding so mutations get past the tag
// byte: decode never panics, and whatever decodes re-encodes to a frame
// that decodes to an equal message.
func FuzzDecodeCompact(f *testing.F) {
	for _, m := range sampleMsgs() {
		data, err := EncodeCompact(m)
		if err != nil {
			f.Fatalf("encode %T: %v", m, err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeCompact(data)
		if err != nil {
			return
		}
		again, err := EncodeCompact(m)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		back, err := DecodeCompact(again)
		if err != nil {
			t.Fatalf("re-encoded %T does not decode: %v", m, err)
		}
		if !msgEqual(m, back) {
			t.Fatalf("%T changed across re-encode:\n  first:  %+v\n  second: %+v", m, m, back)
		}
	})
}

func BenchmarkCodec(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	small := ReadReq{Round: Round2, Reader: 1, TSR: 12345, CacheTS: 678}
	big := randomHistMsg(rng)
	// A 1 KiB write's W request, and a reply carrying two complete
	// 1 KiB entries: each ships its value once.
	pair := types.TSVal{TS: 9, Val: bytes.Repeat([]byte{'w'}, 1024)}
	wreq := WReq{TS: 9, PW: pair, W: types.WTuple{TSVal: pair, TSR: types.TSRMatrix{0: {1, 2}, 1: {1, 2}, 2: {1, 3}}}}
	for _, tc := range []struct {
		name string
		msg  Msg
	}{
		{"small/ReadReq", small},
		{"large/ReadAckHist", big},
		{"1KiB/WReq", wreq},
		{"1KiB/TwoEntryReadAckHist", completeHist(false)},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				data, err := EncodeCompact(tc.msg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := DecodeCompact(data); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(CompactSize(tc.msg)), "bytes/msg")
		})
	}
}
