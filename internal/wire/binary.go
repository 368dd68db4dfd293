package wire

// The compact binary codec: the one serialization of the protocol
// messages. Each message is a one-byte tag followed by varint-packed
// fields — the small control messages these protocols exchange would be
// dominated by the type dictionary of a self-describing format.
// BenchmarkCodec (binary_test.go) reports ns/op and bytes/msg per
// representative message.
//
// The codec is built for the batched hot path:
//
//   - AppendCompact encodes into a caller-supplied buffer, so a
//     transport can reuse one scratch buffer per connection (tcpnet
//     does) and encode a frame without allocating: the sort buffers of
//     map-shaped fields (timestamp matrices, histories) live on the
//     stack up to sortBufMatrix rows and sortBufHistory entries and
//     spill to the heap only beyond.
//   - The messages inside a RegOp or Batch are encoded directly into
//     the outgoing frame: the length prefix is reserved as a
//     fixed-width padded varint and backfilled once the payload is in
//     place, instead of marshalling the sub-message to a temporary
//     buffer and copying it in. A Batch of 64 RegOps is one buffer,
//     not 129.
//   - Decoding walks a cursor over the input and hands nested payloads
//     to the recursive decoder as sub-slice views, copying only the
//     leaf byte fields the decoded message must own.
//   - Each value is shipped and decoded once. Wherever a pre-write pair
//     pw stands beside a complete tuple w (history entries, PWReq, WReq,
//     ReadAck), a kind byte says whether pw stands alone, differs from
//     w's pair, or is w's pair; in the last case — every honest
//     complete entry and W request — pw is not shipped, and the decoded
//     pw and w share one value buffer (see entryPW).
//   - Encoders come from a sync.Pool with their scratch buffers
//     (AppendCompact swaps the caller's buffer in); buffers are
//     length-reset on reuse and never leak bytes between messages
//     (pool_test.go pins this under -race).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/types"
)

// Message tags. Stable on-wire values: append only.
const (
	tagPWReq byte = iota + 1
	tagPWAck
	tagWReq
	tagWAck
	tagReadReq
	tagReadAck
	tagReadAckHist
	tagBaselineWriteReq
	tagBaselineWriteAck
	tagBaselineReadReq
	tagBaselineReadAck
	tagPairsReadAck
	tagSubscribeReq
	tagPushState
	tagRegOp
	tagBatch
	_ // 17: the retired incarnation envelope (now RegOp.Inc)
	tagStateReq
	tagStateResp
	_ // 20: the retired configuration envelope (now RegOp.Cfg)
	tagConfigUpdate
	tagBusy
	tagEnd // one past the last tag; new tags go above tagBusy
)

// RegOp header flags: which optional header fields follow the register
// name. An unstamped, untraced header costs this one byte.
const (
	hdrTraced byte = 1 << iota // Op follows
	hdrInc                     // Inc follows
	hdrCfg                     // Cfg follows
	hdrKnown  = hdrTraced | hdrInc | hdrCfg
)

// Sort-buffer sizes of the encoder: a timestamp matrix has one row per
// base object (S is single-digit in every deployment here) and GC'd
// histories settle around twenty entries, so both sorts normally run on
// the stack.
const (
	sortBufMatrix  = 8
	sortBufHistory = 32
)

// subLenWidth is the fixed byte width of a nested-message length
// prefix. Nested payloads are framed with a zero-padded uvarint of
// exactly this width so the encoder can reserve the prefix, encode the
// payload in place, and backfill the length — no temporary buffer, no
// copy. binary.Uvarint accepts the non-canonical padding.
const subLenWidth = 4

// maxSubLen is the largest nested payload subLenWidth bytes can frame
// (2^28-1, comfortably above maxLen).
const maxSubLen = 1<<(7*subLenWidth) - 1

// enc is a little append-only writer with varint packing; an error
// sticks. Encoders come from encPool: a message's encode method is
// called through the Msg interface, so an enc passed to it escapes to
// the heap, and pooling it keeps AppendCompact allocation-free.
type enc struct {
	b   []byte
	err error
}

// maxPooledBuf bounds the capacity retained by pooled encoder buffers:
// a one-off giant state transfer must not pin its footprint forever.
const maxPooledBuf = 1 << 16

var encPool = sync.Pool{New: func() interface{} { return new(enc) }}

// getEnc takes an encoder from the pool, reset to an empty buffer.
func getEnc() *enc {
	e := encPool.Get().(*enc)
	e.b, e.err = e.b[:0], nil
	return e
}

// putEnc returns an encoder to the pool unless its buffer has grown
// past the retention cap.
func putEnc(e *enc) {
	if cap(e.b) <= maxPooledBuf {
		encPool.Put(e)
	}
}

func (e *enc) u(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

func (e *enc) i(v int64) { e.b = binary.AppendVarint(e.b, v) }

func (e *enc) byte(c byte) { e.b = append(e.b, c) }

func (e *enc) bytes(p []byte) {
	e.u(uint64(len(p)))
	e.b = append(e.b, p...)
}

// str writes a length-prefixed string without converting it to []byte.
func (e *enc) str(s string) {
	e.u(uint64(len(s)))
	e.b = append(e.b, s...)
}

// optBytes distinguishes nil (⊥) from empty.
func (e *enc) optBytes(p []byte) {
	if p == nil {
		e.byte(0)
		return
	}
	e.byte(1)
	e.bytes(p)
}

// beginNested reserves a fixed-width length prefix for a nested message
// and returns the payload start offset for endNested.
func (e *enc) beginNested() int {
	e.b = append(e.b, 0x80, 0x80, 0x80, 0x00)
	return len(e.b)
}

// endNested backfills the reserved prefix with the padded-uvarint length
// of everything appended since beginNested.
func (e *enc) endNested(start int) {
	n := len(e.b) - start
	if n > maxSubLen {
		e.err = fmt.Errorf("wire: nested payload %d bytes exceeds frame cap", n)
		return
	}
	e.b[start-4] = byte(n)&0x7f | 0x80
	e.b[start-3] = byte(n>>7)&0x7f | 0x80
	e.b[start-2] = byte(n>>14)&0x7f | 0x80
	e.b[start-1] = byte(n >> 21)
}

// msg appends one tagged message.
func (e *enc) msg(m Msg) {
	if m == nil {
		e.err = errors.New("wire: compact codec: nil message")
		return
	}
	m.encode(e)
}

// nested encodes a wrapped message in place behind its length prefix.
func (e *enc) nested(m Msg) {
	start := e.beginNested()
	e.msg(m)
	e.endNested(start)
}

func (e *enc) tsval(tv types.TSVal) {
	e.i(int64(tv.TS))
	e.optBytes(tv.Val)
}

func (e *enc) tsrVector(v types.TSRVector) {
	if v == nil {
		e.byte(0)
		return
	}
	e.byte(1)
	e.u(uint64(len(v)))
	for _, r := range v {
		e.i(int64(r))
	}
}

func (e *enc) tsrMatrix(m types.TSRMatrix) {
	if len(m) == 0 {
		e.u(0)
		return
	}
	var buf [sortBufMatrix]types.ObjectID
	ids := buf[:0]
	for id, vec := range m {
		if vec != nil {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	e.u(uint64(len(ids)))
	for _, id := range ids {
		e.i(int64(id))
		e.tsrVector(m[id])
	}
}

func (e *enc) wtuple(w types.WTuple) {
	e.tsval(w.TSVal)
	e.tsrMatrix(w.TSR)
}

func (e *enc) history(h types.History) {
	var buf [sortBufHistory]types.TS
	tss := buf[:0]
	for ts := range h {
		tss = append(tss, ts)
	}
	slices.Sort(tss)
	e.u(uint64(len(tss)))
	for _, ts := range tss {
		entry := h[ts]
		e.i(int64(ts))
		e.entry(entry.PW, entry.W)
	}
}

// Entry kinds: the byte before a pre-write pair pw and the complete
// tuple w that may stand beside it — in a history entry, PWReq, WReq
// and ReadAck. An honest complete entry is ⟨w.tsval, w⟩ (Fig. 5), so
// its pair goes on the wire once, inside w. The encoder never writes
// entryPWAndW for equal pairs, but the decoder accepts it (the message
// is the same; it just costs the bytes), and rejects any other byte.
const (
	entryPW     byte = iota // pw alone: a history entry without its tuple
	entryPWAndW             // pw, then w, whose pair differs from pw
	entryW                  // w alone, whose pair is pw
)

// entry writes pw and the tuple w beside it (nil: none) under their
// kind. Equal pairs (TSVal.Equal: the same TS and the same bytes, ⊥
// apart from empty) always take entryW.
func (e *enc) entry(pw types.TSVal, w *types.WTuple) {
	switch {
	case w == nil:
		e.byte(entryPW)
		e.tsval(pw)
	case pw.Equal(w.TSVal):
		e.byte(entryW)
		e.wtuple(*w)
	default:
		e.byte(entryPWAndW)
		e.tsval(pw)
		e.wtuple(*w)
	}
}

// The message encoders, in tag order.

func (v PWReq) encode(e *enc) {
	e.byte(tagPWReq)
	e.i(int64(v.TS))
	e.entry(v.PW, &v.W)
}

func (v PWAck) encode(e *enc) {
	e.byte(tagPWAck)
	e.i(int64(v.ObjectID))
	e.i(int64(v.TS))
	e.tsrVector(v.TSR)
}

func (v WReq) encode(e *enc) {
	e.byte(tagWReq)
	e.i(int64(v.TS))
	e.entry(v.PW, &v.W)
}

func (v WAck) encode(e *enc) {
	e.byte(tagWAck)
	e.i(int64(v.ObjectID))
	e.i(int64(v.TS))
}

func (v ReadReq) encode(e *enc) {
	e.byte(tagReadReq)
	e.i(int64(v.Round))
	e.i(int64(v.Reader))
	e.i(int64(v.TSR))
	e.i(int64(v.CacheTS))
	if v.Repair == nil {
		e.byte(0)
	} else {
		e.byte(1)
		e.wtuple(*v.Repair)
	}
}

func (v ReadAck) encode(e *enc) {
	e.byte(tagReadAck)
	e.i(int64(v.ObjectID))
	e.i(int64(v.Round))
	e.i(int64(v.TSR))
	e.entry(v.PW, &v.W)
}

func (v ReadAckHist) encode(e *enc) {
	e.byte(tagReadAckHist)
	e.i(int64(v.ObjectID))
	e.i(int64(v.Round))
	e.i(int64(v.TSR))
	e.history(v.History)
}

func (v BaselineWriteReq) encode(e *enc) {
	e.byte(tagBaselineWriteReq)
	e.i(int64(v.TS))
	e.optBytes(v.Val)
	e.bytes(v.Sig)
}

func (v BaselineWriteAck) encode(e *enc) {
	e.byte(tagBaselineWriteAck)
	e.i(int64(v.ObjectID))
	e.i(int64(v.TS))
}

func (v BaselineReadReq) encode(e *enc) {
	e.byte(tagBaselineReadReq)
	e.i(int64(v.Attempt))
	e.i(int64(v.Reader))
}

func (v BaselineReadAck) encode(e *enc) {
	e.byte(tagBaselineReadAck)
	e.i(int64(v.ObjectID))
	e.i(int64(v.Attempt))
	e.i(int64(v.TS))
	e.optBytes(v.Val)
	e.bytes(v.Sig)
}

func (v PairsReadAck) encode(e *enc) {
	e.byte(tagPairsReadAck)
	e.i(int64(v.ObjectID))
	e.i(int64(v.Attempt))
	e.tsval(v.PW)
	e.tsval(v.W)
}

func (v SubscribeReq) encode(e *enc) {
	e.byte(tagSubscribeReq)
	e.i(int64(v.Reader))
	e.i(v.Seq)
}

func (v PushState) encode(e *enc) {
	e.byte(tagPushState)
	e.i(int64(v.ObjectID))
	e.i(v.Seq)
	e.i(int64(v.TS))
	e.optBytes(v.Val)
	if v.Echo {
		e.byte(1)
	} else {
		e.byte(0)
	}
}

func (v RegOp) encode(e *enc) {
	e.byte(tagRegOp)
	e.str(v.Reg)
	var flags byte
	if v.Op != 0 {
		flags |= hdrTraced
	}
	inc, hasInc := v.Inc.Get()
	if hasInc {
		flags |= hdrInc
	}
	cfg, hasCfg := v.Cfg.Get()
	if hasCfg {
		flags |= hdrCfg
	}
	e.byte(flags)
	if v.Op != 0 {
		e.u(v.Op)
	}
	if hasInc {
		e.u(uint64(inc))
	}
	if hasCfg {
		e.u(uint64(cfg))
	}
	e.nested(v.Msg)
}

func (v Batch) encode(e *enc) {
	e.byte(tagBatch)
	e.u(uint64(len(v.Ops)))
	for _, op := range v.Ops {
		e.nested(op)
	}
}

func (v StateReq) encode(e *enc) {
	e.byte(tagStateReq)
	e.i(v.Seq)
	e.i(int64(v.Requester))
}

func (v StateResp) encode(e *enc) {
	e.byte(tagStateResp)
	e.i(int64(v.ObjectID))
	e.i(v.Seq)
	e.i(v.Incarnation)
	e.u(uint64(len(v.Regs)))
	for _, rs := range v.Regs {
		e.str(rs.Reg)
		e.i(int64(rs.TS))
		e.history(rs.History)
		e.tsrVector(rs.TSR)
	}
}

func (v ConfigUpdate) encode(e *enc) {
	e.byte(tagConfigUpdate)
	e.i(v.Shard)
	e.i(v.Epoch)
	e.u(uint64(len(v.Members)))
	for _, m := range v.Members {
		e.i(m)
	}
	e.bytes(v.Sig)
}

func (v Busy) encode(e *enc) {
	e.byte(tagBusy)
	e.u(uint64(len(v.Ops)))
	for _, ref := range v.Ops {
		e.str(ref.Reg)
		e.u(ref.Op)
	}
}

// AppendCompact serializes a message with the compact codec, appending
// the encoding to dst and returning the extended buffer. Callers that
// hold a reusable scratch buffer (one per connection, or drawn from a
// pool) encode without allocating (see the sort-buffer note above).
func AppendCompact(dst []byte, m Msg) ([]byte, error) {
	e := getEnc()
	own := e.b
	e.b = dst
	e.msg(m)
	out, err := e.b, e.err
	e.b = own // the pooled encoder keeps its own buffer, not dst
	putEnc(e)
	if err != nil {
		return dst, err
	}
	return out, nil
}

// EncodeCompact serializes a message with the compact codec into a
// fresh, caller-owned buffer. The working buffer comes from a pool, so
// the only allocation is the exact-size result.
func EncodeCompact(m Msg) ([]byte, error) {
	e := getEnc()
	e.msg(m)
	out, err := slices.Clone(e.b), e.err
	putEnc(e)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// dec is the matching reader: a cursor over the frame; the first error
// sticks.
type dec struct {
	b   []byte
	off int
	err error
}

// rem returns the bytes left in the frame.
func (d *dec) rem() int { return len(d.b) - d.off }

func (d *dec) u() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("wire: bad uvarint: %w", io.ErrUnexpectedEOF)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) i() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.err = fmt.Errorf("wire: bad varint: %w", io.ErrUnexpectedEOF)
		return 0
	}
	d.off += n
	return v
}

func (d *dec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.err = io.ErrUnexpectedEOF
		return 0
	}
	c := d.b[d.off]
	d.off++
	return c
}

// maxLen caps length prefixes: a Byzantine peer must not make us
// allocate unbounded memory from a tiny frame.
const maxLen = 1 << 26

// count reads a length prefix — a byte length or an element count,
// every element costing at least one byte — and rejects one the
// remaining frame provably cannot hold, before anything is sized from
// it. After an error it returns 0, so callers allocate and loop over
// nothing.
func (d *dec) count(what string) int {
	n := d.u()
	if d.err == nil && (n > maxLen || int64(n) > int64(d.rem())) {
		d.err = fmt.Errorf("wire: %s length %d exceeds frame", what, n)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// view returns a length-prefixed sub-frame as a slice of the input —
// no copy. Only the recursive decoder reads it; nothing retains it.
func (d *dec) view() []byte {
	n := d.count("field")
	s := d.b[d.off : d.off+n]
	d.off += n
	return s
}

// bytesN copies out a length-prefixed byte field. Decoded messages own
// their data (the frame buffer may be pooled and reused), so leaf byte
// fields copy; nested message payloads use view instead.
func (d *dec) bytesN() []byte {
	v := d.view()
	if d.err != nil {
		return nil
	}
	return append(make([]byte, 0, len(v)), v...)
}

// stamp reads an optional header counter the flags announced.
func (d *dec) stamp() Stamp {
	v := d.u()
	if d.err == nil && v >= math.MaxUint32 {
		d.err = fmt.Errorf("wire: header stamp %d out of range", v)
		return 0
	}
	return Stamp(v) + 1
}

func (d *dec) optBytes() []byte {
	if d.byte() == 0 {
		return nil
	}
	return d.bytesN()
}

func (d *dec) tsval() types.TSVal {
	ts := types.TS(d.i())
	return types.TSVal{TS: ts, Val: d.optBytes()}
}

func (d *dec) tsrVector() types.TSRVector {
	if d.byte() == 0 {
		return nil
	}
	n := d.count("vector")
	if d.err != nil {
		return nil
	}
	out := make(types.TSRVector, n)
	for i := range out {
		out[i] = types.ReaderTS(d.i())
	}
	return out
}

func (d *dec) tsrMatrix() types.TSRMatrix {
	n := d.count("matrix")
	if d.err != nil {
		return nil
	}
	m := types.NewTSRMatrix()
	for i := 0; i < n && d.err == nil; i++ {
		id := types.ObjectID(d.i())
		m[id] = d.tsrVector()
	}
	return m
}

func (d *dec) wtuple() types.WTuple {
	return types.WTuple{TSVal: d.tsval(), TSR: d.tsrMatrix()}
}

func (d *dec) history() types.History {
	n := d.count("history")
	if d.err != nil {
		return nil
	}
	h := make(types.History) // grows on demand; n is attacker-controlled
	for i := 0; i < n && d.err == nil; i++ {
		ts := types.TS(d.i())
		pw, w, hasW := d.entry()
		entry := types.HistEntry{PW: pw}
		if hasW {
			w := w // only complete entries take a heap tuple
			entry.W = &w
		}
		h[ts] = entry
	}
	return h
}

// entry reads a kind byte and the pair and tuple it announces. An
// entryW pair is the tuple's own, so the two share one value buffer:
// values are never edited once built (see package types), which makes
// the sharing safe.
func (d *dec) entry() (pw types.TSVal, w types.WTuple, hasW bool) {
	switch kind := d.byte(); kind {
	case entryPW:
		return d.tsval(), w, false
	case entryPWAndW:
		return d.tsval(), d.wtuple(), true
	case entryW:
		w = d.wtuple()
		return w.TSVal, w, true
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown entry kind %d", kind)
		}
		return pw, w, false
	}
}

// complete reads the pair and tuple of a message that always carries
// both (PWReq, WReq, ReadAck): entryPW is an error there.
func (d *dec) complete() (types.TSVal, types.WTuple) {
	pw, w, hasW := d.entry()
	if !hasW && d.err == nil {
		d.err = errors.New("wire: pre-write pair without its tuple")
	}
	return pw, w
}

// maxNest caps nesting during decode. The deepest legitimate frame is
// Batch{RegOp{leaf}}: everything the recovery, membership and flow
// layers add is a RegOp header field or a leaf notice. Without a cap, a
// Byzantine peer could craft a deeply self-nested frame whose recursive
// decode exhausts the stack — a fatal, unrecoverable runtime error.
const maxNest = 2

// DecodeCompact deserializes a message produced by EncodeCompact. The
// returned message owns all its data; data may be a pooled buffer the
// caller reuses after the call.
func DecodeCompact(data []byte) (Msg, error) {
	return decodeCompact(data, 0)
}

func decodeCompact(data []byte, depth int) (Msg, error) {
	if depth > maxNest {
		return nil, fmt.Errorf("wire: compact codec: nesting exceeds %d levels", maxNest)
	}
	if len(data) == 0 {
		return nil, fmt.Errorf("wire: compact codec: empty frame")
	}
	d := dec{b: data[1:]}
	var m Msg
	switch data[0] {
	case tagPWReq:
		pr := PWReq{TS: types.TS(d.i())}
		pr.PW, pr.W = d.complete()
		m = pr
	case tagPWAck:
		m = PWAck{ObjectID: types.ObjectID(d.i()), TS: types.TS(d.i()), TSR: d.tsrVector()}
	case tagWReq:
		wr := WReq{TS: types.TS(d.i())}
		wr.PW, wr.W = d.complete()
		m = wr
	case tagWAck:
		m = WAck{ObjectID: types.ObjectID(d.i()), TS: types.TS(d.i())}
	case tagReadReq:
		rr := ReadReq{Round: Round(d.i()), Reader: types.ReaderID(d.i()), TSR: types.ReaderTS(d.i()), CacheTS: types.TS(d.i())}
		if d.byte() == 1 {
			rep := d.wtuple()
			rr.Repair = &rep
		}
		m = rr
	case tagReadAck:
		ra := ReadAck{ObjectID: types.ObjectID(d.i()), Round: Round(d.i()), TSR: types.ReaderTS(d.i())}
		ra.PW, ra.W = d.complete()
		m = ra
	case tagReadAckHist:
		m = ReadAckHist{ObjectID: types.ObjectID(d.i()), Round: Round(d.i()), TSR: types.ReaderTS(d.i()), History: d.history()}
	case tagBaselineWriteReq:
		m = BaselineWriteReq{TS: types.TS(d.i()), Val: d.optBytes(), Sig: d.bytesN()}
	case tagBaselineWriteAck:
		m = BaselineWriteAck{ObjectID: types.ObjectID(d.i()), TS: types.TS(d.i())}
	case tagBaselineReadReq:
		m = BaselineReadReq{Attempt: int(d.i()), Reader: types.ReaderID(d.i())}
	case tagBaselineReadAck:
		m = BaselineReadAck{ObjectID: types.ObjectID(d.i()), Attempt: int(d.i()), TS: types.TS(d.i()), Val: d.optBytes(), Sig: d.bytesN()}
	case tagPairsReadAck:
		m = PairsReadAck{ObjectID: types.ObjectID(d.i()), Attempt: int(d.i()), PW: d.tsval(), W: d.tsval()}
	case tagSubscribeReq:
		m = SubscribeReq{Reader: types.ReaderID(d.i()), Seq: d.i()}
	case tagPushState:
		m = PushState{ObjectID: types.ObjectID(d.i()), Seq: d.i(), TS: types.TS(d.i()), Val: d.optBytes(), Echo: d.byte() == 1}
	case tagRegOp:
		reg := string(d.view())
		flags := d.byte()
		if d.err == nil && flags&^hdrKnown != 0 {
			d.err = fmt.Errorf("wire: unknown header flags %#x", flags)
		}
		var op uint64
		var inc, cfg Stamp
		if flags&hdrTraced != 0 {
			op = d.u()
		}
		if flags&hdrInc != 0 {
			inc = d.stamp()
		}
		if flags&hdrCfg != 0 {
			cfg = d.stamp()
		}
		sub := d.view()
		if d.err == nil {
			inner, err := decodeCompact(sub, depth+1)
			if err != nil {
				return nil, fmt.Errorf("wire: compact codec: reg op payload: %w", err)
			}
			m = RegOp{Reg: reg, Op: op, Inc: inc, Cfg: cfg, Msg: inner}
		}
	case tagBatch:
		n := d.count("batch")
		ops := make([]Msg, 0, min(n, 1024))
		for i := 0; i < n && d.err == nil; i++ {
			sub := d.view()
			if d.err != nil {
				break
			}
			inner, err := decodeCompact(sub, depth+1)
			if err != nil {
				return nil, fmt.Errorf("wire: compact codec: batch op %d: %w", i, err)
			}
			ops = append(ops, inner)
		}
		m = Batch{Ops: ops}
	case tagConfigUpdate:
		cu := ConfigUpdate{Shard: d.i(), Epoch: d.i()}
		n := d.count("member list")
		cu.Members = make([]int64, 0, min(n, 1024))
		for i := 0; i < n && d.err == nil; i++ {
			cu.Members = append(cu.Members, d.i())
		}
		cu.Sig = d.bytesN()
		m = cu
	case tagBusy:
		n := d.count("busy notice")
		refs := make([]OpRef, 0, min(n, 1024))
		for i := 0; i < n && d.err == nil; i++ {
			refs = append(refs, OpRef{Reg: string(d.view()), Op: d.u()})
		}
		m = Busy{Ops: refs}
	case tagStateReq:
		m = StateReq{Seq: d.i(), Requester: types.ObjectID(d.i())}
	case tagStateResp:
		resp := StateResp{ObjectID: types.ObjectID(d.i()), Seq: d.i(), Incarnation: d.i()}
		n := d.count("state resp")
		resp.Regs = make([]RegState, 0, min(n, 1024))
		for i := 0; i < n && d.err == nil; i++ {
			rs := RegState{Reg: string(d.view()), TS: types.TS(d.i())}
			rs.History = d.history()
			rs.TSR = d.tsrVector()
			resp.Regs = append(resp.Regs, rs)
		}
		m = resp
	default:
		return nil, fmt.Errorf("wire: compact codec: unknown tag %d", data[0])
	}
	if d.err != nil {
		return nil, fmt.Errorf("wire: compact codec: %w", d.err)
	}
	if d.rem() != 0 {
		return nil, fmt.Errorf("wire: compact codec: %d trailing bytes", d.rem())
	}
	return m, nil
}

// CompactSize returns the compact-codec size of a message in bytes
// (math.MaxInt for unencodable messages, which cannot happen for
// well-formed payloads). The measurement runs on a pooled buffer and
// allocates nothing.
func CompactSize(m Msg) int {
	e := getEnc()
	e.msg(m)
	n, err := len(e.b), e.err
	putEnc(e)
	if err != nil {
		return math.MaxInt
	}
	return n
}
