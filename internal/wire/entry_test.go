package wire

import (
	"bytes"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/types"
)

// entryKind returns the kind byte the encoder writes for pw beside w.
func entryKind(pw types.TSVal, w *types.WTuple) byte {
	e := getEnc()
	defer putEnc(e)
	e.entry(pw, w)
	return e.b[0]
}

// sameBuffer reports whether two non-empty values share a backing array.
func sameBuffer(a, b types.Value) bool {
	return len(a) > 0 && unsafe.SliceData(a) == unsafe.SliceData(b)
}

// entryCase is one pre-write pair beside a tuple (nil: none).
type entryCase struct {
	name string
	pw   types.TSVal
	w    *types.WTuple
	kind byte
}

func entryCases() []entryCase {
	tsr := types.TSRMatrix{0: types.TSRVector{1, 2}, 2: types.TSRVector{0, 3}}
	tuple := func(ts types.TS, v types.Value) *types.WTuple {
		return &types.WTuple{TSVal: types.TSVal{TS: ts, Val: v}, TSR: tsr}
	}
	v := types.Value("value-5")
	return []entryCase{
		{"pw only", types.TSVal{TS: 5, Val: v}, nil, entryPW},
		{"complete, one buffer", types.TSVal{TS: 5, Val: v}, tuple(5, v), entryW},
		{"complete, two buffers", types.TSVal{TS: 5, Val: v.Clone()}, tuple(5, v), entryW},
		{"complete ⊥", types.InitTSVal(), tuple(0, nil), entryW},
		{"complete empty value", types.TSVal{TS: 5, Val: types.Value{}}, tuple(5, types.Value{}), entryW},
		{"skipped write", types.TSVal{TS: 6, Val: types.Value("value-6")}, tuple(5, v), entryPWAndW},
		{"same TS, other value", types.TSVal{TS: 5, Val: types.Value("value-X")}, tuple(5, v), entryPWAndW},
		{"same value, other TS", types.TSVal{TS: 4, Val: v}, tuple(5, v), entryPWAndW},
		{"⊥ beside empty", types.TSVal{TS: 5}, tuple(5, types.Value{}), entryPWAndW},
		{"empty beside ⊥", types.TSVal{TS: 5, Val: types.Value{}}, tuple(5, nil), entryPWAndW},
	}
}

// TestEntryKindsRoundTrip encodes every kind of pw-beside-w in each
// message that carries one: the kind byte is the expected one, the
// decoded message and the clone are Equal to the original, ⊥ stays
// apart from an empty value, only an entryW pair shares its tuple's
// buffer, and the clone shares no value with its source.
func TestEntryKindsRoundTrip(t *testing.T) {
	for _, c := range entryCases() {
		if got := entryKind(c.pw, c.w); got != c.kind {
			t.Errorf("%s: kind %d, want %d", c.name, got, c.kind)
		}
		msgs := []Msg{ReadAckHist{ObjectID: 1, Round: Round1, TSR: 4, History: types.History{c.pw.TS: {PW: c.pw, W: c.w}}}}
		if c.w != nil {
			msgs = append(msgs,
				PWReq{TS: c.pw.TS, PW: c.pw, W: *c.w},
				WReq{TS: c.pw.TS, PW: c.pw, W: *c.w},
				ReadAck{ObjectID: 2, Round: Round2, TSR: 4, PW: c.pw, W: *c.w})
		}
		for _, m := range msgs {
			back, err := DecodeCompact(mustEncode(t, m))
			if err != nil {
				t.Fatalf("%s/%T: %v", c.name, m, err)
			}
			for path, got := range map[string]Msg{"decode": back, "clone": Clone(m)} {
				name := fmt.Sprintf("%s/%T/%s", c.name, m, path)
				if !msgEqual(m, got) {
					t.Fatalf("%s changed it:\n  in:  %+v\n  out: %+v", name, m, got)
				}
				pw, w := entryOf(t, got)
				if pw.Val.IsBottom() != c.pw.Val.IsBottom() {
					t.Errorf("%s: ⊥-ness of pw changed", name)
				}
				if sameBuffer(pw.Val, c.pw.Val) {
					t.Errorf("%s: pw shares its value with the source", name)
				}
				if w == nil {
					continue
				}
				if w.TSVal.Val.IsBottom() != c.w.TSVal.Val.IsBottom() {
					t.Errorf("%s: ⊥-ness of w's pair changed", name)
				}
				if sameBuffer(w.TSVal.Val, c.w.TSVal.Val) {
					t.Errorf("%s: w shares its value with the source", name)
				}
				if shared := sameBuffer(pw.Val, w.TSVal.Val); shared != (c.kind == entryW && len(pw.Val) > 0) {
					t.Errorf("%s: pw and w share a buffer: %v", name, shared)
				}
			}
		}
	}
}

// entryOf returns the pair and tuple a message carries.
func entryOf(t *testing.T, m Msg) (types.TSVal, *types.WTuple) {
	t.Helper()
	switch v := m.(type) {
	case ReadAckHist:
		for _, e := range v.History {
			return e.PW, e.W
		}
	case PWReq:
		return v.PW, &v.W
	case WReq:
		return v.PW, &v.W
	case ReadAck:
		return v.PW, &v.W
	}
	t.Fatalf("no entry in %T", m)
	return types.TSVal{}, nil
}

// completeHist returns a ReadAckHist with two complete entries holding
// 1 KiB values, each entry's PW in a buffer of its own; with forged
// set, each PW differs from its W's pair in the last byte, so every
// entry must ship and hold both.
func completeHist(forged bool) ReadAckHist {
	h := types.History{}
	for ts := types.TS(1); ts <= 2; ts++ {
		val := bytes.Repeat([]byte{byte('a' + ts)}, 1024)
		w := types.WTuple{TSVal: types.TSVal{TS: ts, Val: val}, TSR: types.TSRMatrix{0: {1, 2}, 1: {1, 2}, 2: {1, 3}}}
		pw := types.TSVal{TS: ts, Val: types.Value(val).Clone()}
		if forged {
			pw.Val[len(pw.Val)-1] ^= 1
		}
		h[ts] = types.HistEntry{PW: pw, W: &w}
	}
	return ReadAckHist{ObjectID: 3, Round: Round1, TSR: 7, History: h}
}

// TestCompleteEntryHoldsItsValueOnce pins the saving as counts: a
// decoded or cloned complete entry holds its value in one buffer (a
// clone's shares nothing with its source; TestCloneIsDeepForAllTypes
// scribbles a kind-2 entry too), so decoding or cloning two complete
// entries makes two allocations fewer than the same message with
// forged pairs, and ships one value fewer.
func TestCompleteEntryHoldsItsValueOnce(t *testing.T) {
	honest, forged := completeHist(false), completeHist(true)
	data, forgedData := mustEncode(t, honest), mustEncode(t, forged)
	if d := len(forgedData) - len(data); d < 2*1024 {
		t.Errorf("two complete entries ship %d bytes less than forged ones, want ≥ 2 KiB", d)
	}

	m, err := DecodeCompact(data)
	if err != nil {
		t.Fatal(err)
	}
	for ts, e := range m.(ReadAckHist).History {
		if !sameBuffer(e.PW.Val, e.W.TSVal.Val) {
			t.Errorf("decoded entry %d holds its value twice", ts)
		}
	}
	decode := func(b []byte) func() {
		return func() {
			if _, err := DecodeCompact(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	if a, f := testing.AllocsPerRun(100, decode(data)), testing.AllocsPerRun(100, decode(forgedData)); a != f-2 {
		t.Errorf("decode allocs: %v for two complete entries, %v forged; want one fewer per entry", a, f)
	}

	c := Clone(honest).(ReadAckHist)
	for ts, e := range c.History {
		if !sameBuffer(e.PW.Val, e.W.TSVal.Val) {
			t.Errorf("cloned entry %d holds its value twice", ts)
		}
		src := honest.History[ts]
		if sameBuffer(e.PW.Val, src.PW.Val) || sameBuffer(e.PW.Val, src.W.TSVal.Val) {
			t.Errorf("cloned entry %d shares its value with the source", ts)
		}
	}
	clone := func(m Msg) func() { return func() { Clone(m) } }
	if a, f := testing.AllocsPerRun(100, clone(honest)), testing.AllocsPerRun(100, clone(forged)); a != f-2 {
		t.Errorf("clone allocs: %v for two complete entries, %v forged; want one fewer per entry", a, f)
	}
}
