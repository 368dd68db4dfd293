package wire

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"unsafe"

	"repro/internal/types"
)

// TestHeaderStaysInSizeClass: RegOp is boxed into a Msg interface some
// 25 times per store operation, so growing it past the allocator's
// 48-byte size class is an allocation-volume regression on every
// workload (bench/: alloc_kb_per_op).
func TestHeaderStaysInSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(RegOp{}); size > 48 {
		t.Fatalf("RegOp is %d bytes; keep the header within the 48-byte size class", size)
	}
}

// TestStamp: a stamped 0 is not the unstamped zero value, and values
// survive the in-band presence encoding up to the documented ceiling.
func TestStamp(t *testing.T) {
	if _, ok := Stamp(0).Get(); ok {
		t.Fatal("the zero Stamp must read as unstamped")
	}
	for _, v := range []int64{0, 1, 41, math.MaxUint32 - 1} {
		got, ok := StampOf(v).Get()
		if !ok || got != v {
			t.Fatalf("StampOf(%d).Get() = %d, %v", v, got, ok)
		}
	}
}

// TestHeaderRoundTrip: every combination of the optional header fields
// survives Clone and the codec, an absent stamp stays distinct from a
// stamped 0, and an all-absent header costs exactly its flags byte.
func TestHeaderRoundTrip(t *testing.T) {
	stamps := []Stamp{0, StampOf(0), StampOf(5), StampOf(math.MaxUint32 - 1)}
	body := PWReq{TS: 7, PW: types.TSVal{TS: 7, Val: types.Value("v")}, W: types.InitWTuple()}
	bare := CompactSize(RegOp{Reg: "k", Msg: body})
	for _, op := range []uint64{0, 1, math.MaxUint64} {
		for _, inc := range stamps {
			for _, cfg := range stamps {
				m := RegOp{Reg: "k", Op: op, Inc: inc, Cfg: cfg, Msg: body}
				name := fmt.Sprintf("op=%d/inc=%d/cfg=%d", op, inc, cfg)
				if c := Clone(m); !reflect.DeepEqual(c, Msg(m)) {
					t.Fatalf("%s: Clone yielded %#v", name, c)
				}
				data, err := AppendCompact(nil, m)
				if err != nil {
					t.Fatalf("%s: encode: %v", name, err)
				}
				back, err := DecodeCompact(data)
				if err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				if !msgEqual(m, back) {
					t.Fatalf("%s: round trip yielded %#v", name, back)
				}
				if op == 0 && inc == 0 && cfg == 0 && len(data) != bare {
					t.Fatalf("unstamped header is %d bytes, want %d", len(data), bare)
				}
			}
		}
	}
	// The flags byte is all an absent header costs: register name
	// length + name + flags + the nested body.
	want := 1 + 1 + len("k") + 1 + subLenWidth + CompactSize(body)
	if bare != want {
		t.Fatalf("unstamped RegOp is %d bytes, want %d", bare, want)
	}
}

// TestHeaderRejectsUnknownFlagsAndRange: flag bits this build does not
// know and stamps beyond the Stamp range are decode errors, not
// silently dropped fields.
func TestHeaderRejectsUnknownFlagsAndRange(t *testing.T) {
	good, err := EncodeCompact(RegOp{Reg: "k", Msg: WAck{ObjectID: 1, TS: 2}})
	if err != nil {
		t.Fatal(err)
	}
	const flagsAt = 3 // tag, len("k"), 'k', flags
	if good[flagsAt] != 0 {
		t.Fatalf("flags byte not where the test expects it: % x", good)
	}
	for bit := byte(1); bit != 0; bit <<= 1 {
		if bit&hdrKnown != 0 {
			continue
		}
		bad := bytes.Clone(good)
		bad[flagsAt] = bit
		if _, err := DecodeCompact(bad); err == nil {
			t.Errorf("unknown flag bit %#x decoded", bit)
		}
	}
	// An Inc stamp of 2³²−1 does not fit (the Stamp would wrap to
	// "absent"); 2³²−2 is the last that does.
	withInc := func(low byte) []byte {
		f := append(bytes.Clone(good[:flagsAt]), hdrInc, low, 0xff, 0xff, 0xff, 0x0f)
		return append(f, good[flagsAt+1:]...)
	}
	if _, err := DecodeCompact(withInc(0xfe)); err != nil {
		t.Errorf("largest in-range stamp rejected: %v", err)
	}
	if _, err := DecodeCompact(withInc(0xff)); err == nil {
		t.Error("out-of-range stamp decoded")
	}
}

// TestBusyNotice: the notice for a bounced Batch of n ops lists n
// (Reg, Op) pairs in order, round-trips, clones without aliasing, and
// weighs the same whatever the bounced values weighed.
func TestBusyNotice(t *testing.T) {
	batchOf := func(valueBytes int) Batch {
		val := bytes.Repeat([]byte{'x'}, valueBytes)
		return Batch{Ops: []Msg{
			RegOp{Reg: "a", Op: 94, Cfg: StampOf(1), Msg: BaselineWriteReq{TS: 1, Val: val}},
			RegOp{Reg: "b", Msg: BaselineWriteReq{TS: 2, Val: val}},
			WAck{ObjectID: 1, TS: 7}, // an op without a register header
		}}
	}
	busy := BusyFor(batchOf(16))
	want := []OpRef{{Reg: "a", Op: 94}, {Reg: "b"}, {}}
	if !reflect.DeepEqual(busy.Ops, want) {
		t.Fatalf("BusyFor(batch) = %+v, want %+v", busy.Ops, want)
	}
	if got := BusyFor(RegOp{Reg: "solo", Op: 3, Msg: WAck{}}).Ops; !reflect.DeepEqual(got, []OpRef{{Reg: "solo", Op: 3}}) {
		t.Fatalf("BusyFor(bare op) = %+v", got)
	}
	if got := OpIDs(busy, nil); !reflect.DeepEqual(got, []uint64{94}) {
		t.Fatalf("OpIDs(busy) = %v, want the one traced op", got)
	}
	if small, large := CompactSize(busy), CompactSize(BusyFor(batchOf(1<<16))); small != large {
		t.Fatalf("notice size depends on the bounced value size: %d vs %d bytes", small, large)
	}
	data, err := EncodeCompact(busy)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCompact(data)
	if err != nil || !msgEqual(busy, back) {
		t.Fatalf("round trip yielded %#v, %v", back, err)
	}
	cloned := Clone(busy).(Busy)
	cloned.Ops[0].Reg = "mutated"
	if busy.Ops[0].Reg != "a" {
		t.Fatal("Clone aliased the notice's refs")
	}
}
