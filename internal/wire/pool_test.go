package wire

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/types"
)

// benchBatch builds a realistic coalesced frame: n writer ops bound for
// one object, the shape the batch layer ships under load.
func benchBatch(n int) Batch {
	ops := make([]Msg, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, RegOp{
			Reg: fmt.Sprintf("r%d", i%4),
			Msg: WReq{
				TS: types.TS(i),
				PW: types.TSVal{TS: types.TS(i), Val: []byte("payload-0123456789")},
				W:  types.WTuple{TSVal: types.TSVal{TS: types.TS(i - 1), Val: []byte("prev")}, TSR: types.NewTSRMatrix()},
			},
		})
	}
	return Batch{Ops: ops}
}

// TestPooledEncodeDeterministic pins that pooled scratch buffers never
// leak bytes between messages: an encode that follows a much larger
// encode on the same pooled buffer must produce byte-identical output
// to a cold encode.
func TestPooledEncodeDeterministic(t *testing.T) {
	small := Msg(WAck{ObjectID: 3, TS: 7})
	cold, err := EncodeCompact(small)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if _, err := EncodeCompact(benchBatch(32)); err != nil {
			t.Fatal(err)
		}
		got, err := EncodeCompact(small)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cold, got) {
			t.Fatalf("iteration %d: pooled encode diverged:\n  cold: %x\n  got:  %x", i, cold, got)
		}
	}
}

// TestPooledRoundTripConcurrent hammers the pooled encode/decode path
// from many goroutines (run under -race in CI): every round trip must
// reproduce its own message even while the pool recycles buffers
// between goroutines.
func TestPooledRoundTripConcurrent(t *testing.T) {
	msgs := sampleMsgs()
	const goroutines = 8
	const iters = 300
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m := msgs[(seed+i)%len(msgs)]
				data, err := EncodeCompact(m)
				if err != nil {
					errs <- fmt.Errorf("encode %T: %w", m, err)
					return
				}
				back, err := DecodeCompact(data)
				if err != nil {
					errs <- fmt.Errorf("decode %T: %w", m, err)
					return
				}
				if !msgEqual(m, back) {
					errs <- fmt.Errorf("%T round-trip mismatch under concurrency", m)
					return
				}
				if CompactSize(m) != len(data) {
					errs <- fmt.Errorf("%T: CompactSize %d != encoded %d", m, CompactSize(m), len(data))
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestAppendCompactReusableBuffer pins the zero-alloc contract callers
// rely on: appending into a reused buffer yields the same bytes as a
// fresh encode, and content already in the buffer is preserved.
func TestAppendCompactReusableBuffer(t *testing.T) {
	m := benchBatch(8)
	want, err := EncodeCompact(m)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 16) // deliberately small: must grow correctly
	for i := 0; i < 10; i++ {
		buf = buf[:0]
		buf, err = AppendCompact(buf, m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, buf) {
			t.Fatalf("iteration %d: AppendCompact diverged from EncodeCompact", i)
		}
	}
	prefixed := append([]byte("header"), 0)
	out, err := AppendCompact(prefixed, m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out[:len(prefixed)], prefixed) {
		t.Fatal("AppendCompact clobbered existing buffer content")
	}
	if !bytes.Equal(out[len(prefixed):], want) {
		t.Fatal("AppendCompact after prefix diverged")
	}
}

// TestDecodeDoesNotRetainInput pins that decoded messages own their
// data: mutating the input frame after DecodeCompact must not change
// the decoded message (frame buffers are pooled and reused).
func TestDecodeDoesNotRetainInput(t *testing.T) {
	m := RegOp{Reg: "acct", Msg: WReq{
		TS: 9,
		PW: types.TSVal{TS: 9, Val: []byte("live-payload")},
		W:  types.WTuple{TSVal: types.TSVal{TS: 8, Val: []byte("older")}, TSR: types.NewTSRMatrix()},
	}}
	data, err := EncodeCompact(m)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeCompact(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0xFF
	}
	if !msgEqual(m, back) {
		t.Fatal("decoded message aliased the input frame")
	}
}

// TestAppendCompactAllocatesNothing pins the zero-alloc encode contract
// (README, binary.go) for every message type: appending into a reused
// buffer allocates nothing, although each message encodes through an
// interface method that would move a stack encoder to the heap.
func TestAppendCompactAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	buf := make([]byte, 0, 4096)
	for _, m := range sampleMsgs() {
		var err error
		allocs := testing.AllocsPerRun(100, func() { buf, err = AppendCompact(buf[:0], m) })
		if err != nil {
			t.Fatalf("encode %T: %v", m, err)
		}
		if allocs != 0 {
			t.Errorf("AppendCompact(%T) allocates %.1f times per call, want 0", m, allocs)
		}
	}
}

// TestDecodeRegOpAllocs pins the register name's single copy: decoding a
// RegOp{WAck} allocates the name string and boxes the two messages.
func TestDecodeRegOpAllocs(t *testing.T) {
	data, err := EncodeCompact(RegOp{Reg: "users/42", Op: 7, Msg: WAck{ObjectID: 1, TS: 9}})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() { _, err = DecodeCompact(data) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 3 {
		t.Errorf("DecodeCompact(RegOp{WAck}) allocates %.1f times, want 3", allocs)
	}
}

func BenchmarkCompactEncodeRegOp(b *testing.B) {
	m := RegOp{Reg: "r1", Msg: WReq{
		TS: 42,
		PW: types.TSVal{TS: 42, Val: []byte("payload-0123456789")},
		W:  types.WTuple{TSVal: types.TSVal{TS: 41, Val: []byte("prev")}, TSR: types.NewTSRMatrix()},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeCompact(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompactDecodeRegOp(b *testing.B) {
	m := RegOp{Reg: "r1", Msg: WReq{
		TS: 42,
		PW: types.TSVal{TS: 42, Val: []byte("payload-0123456789")},
		W:  types.WTuple{TSVal: types.TSVal{TS: 41, Val: []byte("prev")}, TSR: types.NewTSRMatrix()},
	}}
	data, err := EncodeCompact(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCompact(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompactEncodeBatch64(b *testing.B) {
	m := benchBatch(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := EncodeCompact(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompactDecodeBatch64(b *testing.B) {
	data, err := EncodeCompact(benchBatch(64))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeCompact(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendCompactBatch64 is the transport's actual hot path: a
// reused per-connection buffer. Steady state should be zero allocs.
func BenchmarkAppendCompactBatch64(b *testing.B) {
	m := benchBatch(64)
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = AppendCompact(buf[:0], m)
		if err != nil {
			b.Fatal(err)
		}
	}
}
