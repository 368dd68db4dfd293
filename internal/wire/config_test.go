package wire

import (
	"reflect"
	"testing"

	"repro/internal/types"
)

func configFixtures() []Msg {
	return []Msg{
		RegOp{Reg: "users/42", Cfg: StampOf(3), Msg: WReq{TS: 7, PW: types.TSVal{TS: 7, Val: types.Value("v")}, W: types.InitWTuple()}},
		RegOp{Reg: "r", Inc: StampOf(2), Msg: WAck{ObjectID: 1, TS: 7}},
		ConfigUpdate{Shard: 1, Epoch: 4, Members: []int64{0, 9, 2, 3}, Sig: []byte{0xde, 0xad, 0xbe, 0xef}},
		ConfigUpdate{}, // zero value round-trips too
	}
}

// TestConfigFramesRoundTrip: the membership frames survive the codec
// field for field.
func TestConfigFramesRoundTrip(t *testing.T) {
	for _, m := range configFixtures() {
		compact, err := EncodeCompact(m)
		if err != nil {
			t.Fatalf("compact encode %T: %v", m, err)
		}
		back, err := DecodeCompact(compact)
		if err != nil {
			t.Fatalf("compact decode %T: %v", m, err)
		}
		if !reflect.DeepEqual(normalize(m), normalize(back)) {
			t.Fatalf("compact round trip of %#v yielded %#v", m, back)
		}
	}
}

// normalize maps nil and empty slices onto one form: the codec may
// decode an absent list as empty rather than nil, which is semantically
// identical for these frames.
func normalize(m Msg) Msg {
	cu, ok := m.(ConfigUpdate)
	if !ok {
		return m
	}
	if len(cu.Members) == 0 {
		cu.Members = nil
	}
	if len(cu.Sig) == 0 {
		cu.Sig = nil
	}
	return cu
}

// TestConfigFrameClone: clones share no mutable backing arrays.
func TestConfigFrameClone(t *testing.T) {
	cu := ConfigUpdate{Shard: 0, Epoch: 1, Members: []int64{0, 5, 2}, Sig: []byte{1, 2, 3}}
	cloned := Clone(cu).(ConfigUpdate)
	cloned.Members[0] = 99
	cloned.Sig[0] = 99
	if cu.Members[0] == 99 || cu.Sig[0] == 99 {
		t.Fatal("Clone aliased the update's slices")
	}

	ce := RegOp{Reg: "k", Cfg: StampOf(2), Msg: BaselineWriteReq{TS: 1, Val: types.Value("x")}}
	cloned2 := Clone(ce).(RegOp)
	cloned2.Msg.(BaselineWriteReq).Val[0] = 'y'
	if ce.Msg.(BaselineWriteReq).Val[0] != 'x' {
		t.Fatal("Clone aliased the wrapped value")
	}
}

// TestFullReplyNesting: the deepest legitimate frame — a Batch of
// incarnation-stamped, traced register acks from a recovery- and
// membership-enabled object — decodes within the nesting cap.
func TestFullReplyNesting(t *testing.T) {
	reply := Batch{Ops: []Msg{
		RegOp{Reg: "a", Op: 7, Inc: StampOf(2), Msg: WAck{ObjectID: 0, TS: 3}},
		RegOp{Reg: "b", Op: 8, Inc: StampOf(2), Msg: WAck{ObjectID: 0, TS: 4}},
	}}
	data, err := EncodeCompact(reply)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCompact(data)
	if err != nil {
		t.Fatalf("full reply nesting rejected: %v", err)
	}
	if !reflect.DeepEqual(reply, back) {
		t.Fatalf("nested reply mutated in flight:\n%#v\n%#v", reply, back)
	}
}

// TestConfigUpdateDecodeRejectsBogusLength: a member-list count larger
// than the remaining frame must be rejected before allocation.
func TestConfigUpdateDecodeRejectsBogusLength(t *testing.T) {
	data, err := EncodeCompact(ConfigUpdate{Epoch: 1, Members: []int64{1}, Sig: []byte{1}})
	if err != nil {
		t.Fatal(err)
	}
	// Truncate: the declared lengths now exceed the frame.
	for cut := 1; cut < len(data); cut++ {
		if _, err := DecodeCompact(data[:cut]); err == nil {
			t.Fatalf("truncated frame (len %d of %d) decoded", cut, len(data))
		}
	}
}
