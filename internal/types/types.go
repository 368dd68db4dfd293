// Package types defines the core data types of the robust-storage
// protocols from Guerraoui & Vukolić, "How Fast Can a Very Robust Read
// Be?" (PODC 2006): write timestamps, timestamp-value pairs, reader
// timestamp vectors and matrices, and the candidate tuples exchanged
// between clients and base objects.
//
// Clone deep-copies and Equal compares by value, but protocol values are
// shared, not copied: a TSVal, WTuple, TSRMatrix, HistEntry or received
// History is never mutated once built or sent (code replaces map
// entries, never edits one in place). Each hop makes exactly one
// isolation copy (wire.Clone on memnet and simnet, the decode on
// tcpnet); the public API makes two (the writer's copy of the caller's
// Value, the reader's copy of the value it returns); and an object's
// mutable state (its tsr vector and history map) leaves it only as a copy.
//
// Sharing reaches inside one entry too: in a complete history entry
// ⟨w.tsval, w⟩, and in the pw and w of a PWReq, WReq or ReadAck, an
// equal pair is held once — PW.Val may be W.TSVal.Val's buffer (the
// decoder, wire.Clone and HistEntry.Clone join them). An edit through
// one would change the other, which is why neither is ever edited.
package types

import (
	"bytes"
	"fmt"
	"sort"
)

// TS is a write timestamp issued by the single writer. The initial
// (never-written) timestamp is 0 and belongs to the ⊥ value.
type TS int64

// ReaderTS is a reader-issued control timestamp (tsr in the paper).
// Readers increment their ReaderTS once per round, so a READ that starts
// with first-round timestamp f uses f+1 in its second round.
type ReaderTS int64

// NilReaderTS marks an absent reader-timestamp entry (the paper's "nil"
// in inittsrarray). Objects initialize their per-reader tsr fields to 0,
// which is distinct from NilReaderTS.
const NilReaderTS ReaderTS = -1

// ObjectID identifies a base storage object, 0-based. The paper writes
// s_1..s_S; we use 0..S-1.
type ObjectID int

// ReaderID identifies a reader, 0-based. The paper writes r_1..r_R.
type ReaderID int

// Value is the opaque payload stored in the register. A nil Value is the
// initial value ⊥, which is not a valid input to WRITE.
type Value []byte

// IsBottom reports whether v is the initial value ⊥.
func (v Value) IsBottom() bool { return v == nil }

// Clone returns a deep copy of v.
func (v Value) Clone() Value {
	if v == nil {
		return nil
	}
	out := make(Value, len(v))
	copy(out, v)
	return out
}

// Equal reports whether two values are byte-wise equal. ⊥ equals only ⊥.
func (v Value) Equal(o Value) bool {
	if v.IsBottom() || o.IsBottom() {
		return v.IsBottom() && o.IsBottom()
	}
	return bytes.Equal(v, o)
}

// TSVal is a timestamp-value pair ⟨ts, v⟩ (the pw field of objects).
type TSVal struct {
	TS  TS
	Val Value
}

// InitTSVal returns the initial pair ⟨0, ⊥⟩.
func InitTSVal() TSVal { return TSVal{TS: 0, Val: nil} }

// Clone returns a deep copy of tv.
func (tv TSVal) Clone() TSVal { return TSVal{TS: tv.TS, Val: tv.Val.Clone()} }

// Equal reports whether two timestamp-value pairs are identical.
func (tv TSVal) Equal(o TSVal) bool { return tv.TS == o.TS && tv.Val.Equal(o.Val) }

// String renders the pair for logs and tables.
func (tv TSVal) String() string {
	if tv.Val.IsBottom() {
		return fmt.Sprintf("⟨%d,⊥⟩", tv.TS)
	}
	return fmt.Sprintf("⟨%d,%q⟩", tv.TS, string(tv.Val))
}

// TSRVector is one base object's per-reader timestamp register tsr[1..R],
// indexed by ReaderID. A nil vector means the object never responded in
// the PW round that assembled the enclosing matrix.
type TSRVector []ReaderTS

// NewTSRVector returns a vector of r zeroed reader timestamps, the
// initial object state of Fig. 3 (tsr[j] := 0).
func NewTSRVector(r int) TSRVector { return make(TSRVector, r) }

// Clone returns a deep copy of v.
func (v TSRVector) Clone() TSRVector {
	if v == nil {
		return nil
	}
	out := make(TSRVector, len(v))
	copy(out, v)
	return out
}

// Equal reports element-wise equality (nil equals only nil).
func (v TSRVector) Equal(o TSRVector) bool {
	if (v == nil) != (o == nil) {
		return false
	}
	if len(v) != len(o) {
		return false
	}
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

// Get returns the timestamp for reader j, or NilReaderTS when the vector
// is absent or too short (defensive against Byzantine payloads).
func (v TSRVector) Get(j ReaderID) ReaderTS {
	if v == nil || int(j) < 0 || int(j) >= len(v) {
		return NilReaderTS
	}
	return v[j]
}

// TSRMatrix is the writer-assembled array-of-arrays tsrarray[1..S][1..R]:
// for each object index, the tsr vector that object reported in the PW
// round, or nil if it did not respond. It is embedded in every written
// tuple and is what lets readers detect forged candidates.
type TSRMatrix map[ObjectID]TSRVector

// NewTSRMatrix returns the initial, all-nil matrix (inittsrarray).
func NewTSRMatrix() TSRMatrix { return TSRMatrix{} }

// Clone returns a deep copy of m.
func (m TSRMatrix) Clone() TSRMatrix {
	if m == nil {
		return nil
	}
	out := make(TSRMatrix, len(m))
	for id, vec := range m {
		out[id] = vec.Clone()
	}
	return out
}

// Equal reports whether two matrices hold the same vectors for the same
// object indices. Absent entries and nil vectors are equivalent.
func (m TSRMatrix) Equal(o TSRMatrix) bool {
	for id, vec := range m {
		if vec == nil {
			continue
		}
		if !vec.Equal(o[id]) {
			return false
		}
	}
	for id, vec := range o {
		if vec == nil {
			continue
		}
		if !vec.Equal(m[id]) {
			return false
		}
	}
	return true
}

// Get returns the reported timestamp tsrarray[i][j], or NilReaderTS when
// object i has no recorded vector.
func (m TSRMatrix) Get(i ObjectID, j ReaderID) ReaderTS {
	if m == nil {
		return NilReaderTS
	}
	return m[i].Get(j)
}

// WTuple is the tuple stored in the w field of base objects:
// ⟨tsval, tsrarray⟩ — the timestamp-value pair of a write together with
// the reader-timestamp matrix the writer gathered in that write's PW
// round.
type WTuple struct {
	TSVal TSVal
	TSR   TSRMatrix
}

// InitWTuple returns the initial tuple w0 = ⟨⟨0,⊥⟩, inittsrarray⟩.
func InitWTuple() WTuple { return WTuple{TSVal: InitTSVal(), TSR: NewTSRMatrix()} }

// Clone returns a deep copy of w.
func (w WTuple) Clone() WTuple { return WTuple{TSVal: w.TSVal.Clone(), TSR: w.TSR.Clone()} }

// Equal reports whether two tuples are identical, including their
// matrices. Candidate-set membership in the reader (the set C of Fig. 4)
// uses this equality.
func (w WTuple) Equal(o WTuple) bool { return w.TSVal.Equal(o.TSVal) && w.TSR.Equal(o.TSR) }

// String renders the tuple compactly.
func (w WTuple) String() string {
	return fmt.Sprintf("{%s,tsr:%d}", w.TSVal, len(w.TSR))
}

// HistEntry is one per-timestamp slot of a regular object's history:
// the pw pair for that timestamp, and the full tuple once known (nil
// until the W message, or forever for a skipped write). A complete
// entry is ⟨w.tsval, w⟩: its PW.Val may share storage with
// W.TSVal.Val, which is one more reason neither is ever edited.
type HistEntry struct {
	PW TSVal
	W  *WTuple
}

// Clone returns a deep copy of e that shares nothing with e; an equal
// PW and W.TSVal share one copy (see ClonePWAndW).
func (e HistEntry) Clone() HistEntry {
	if e.W == nil {
		return HistEntry{PW: e.PW.Clone()}
	}
	pw, w := ClonePWAndW(e.PW, *e.W)
	return HistEntry{PW: pw, W: &w}
}

// ClonePWAndW deep-copies a pre-write pair pw and the tuple w beside
// it. When pw equals w's pair (TSVal.Equal), the copy of pw is the copy
// of w's pair, so the value is copied and held once.
func ClonePWAndW(pw TSVal, w WTuple) (TSVal, WTuple) {
	if pw.Equal(w.TSVal) {
		w = w.Clone()
		return w.TSVal, w
	}
	return pw.Clone(), w.Clone()
}

// Equal reports deep equality of history entries.
func (e HistEntry) Equal(o HistEntry) bool {
	if !e.PW.Equal(o.PW) {
		return false
	}
	if (e.W == nil) != (o.W == nil) {
		return false
	}
	return e.W == nil || e.W.Equal(*o.W)
}

// History is the per-timestamp write history kept by regular objects
// (Fig. 5). Keys are write timestamps.
type History map[TS]HistEntry

// NewHistory returns a history holding only the initial entry
// history[0] = ⟨pw0, ⟨pw0, inittsrarray⟩⟩.
func NewHistory() History {
	w0 := InitWTuple()
	return History{0: {PW: InitTSVal(), W: &w0}}
}

// Clone returns a deep copy of h.
func (h History) Clone() History {
	if h == nil {
		return nil
	}
	out := make(History, len(h))
	for ts, e := range h {
		out[ts] = e.Clone()
	}
	return out
}

// Equal reports whether two histories hold equal entries at the same
// timestamps. It stops at the first difference.
func (h History) Equal(o History) bool {
	if len(h) != len(o) {
		return false
	}
	for ts, e := range h {
		if oe, ok := o[ts]; !ok || !e.Equal(oe) {
			return false
		}
	}
	return true
}

// Suffix returns a fresh map sharing h's entries with timestamp ≥ from:
// the §5.1 optimization where objects ship only the portion of the
// history above the reader's cached timestamp.
func (h History) Suffix(from TS) History {
	out := make(History)
	for ts, e := range h {
		if ts >= from {
			out[ts] = e
		}
	}
	return out
}

// MaxTS returns the largest timestamp present in h, or -1 when empty.
func (h History) MaxTS() TS {
	max := TS(-1)
	for ts := range h {
		if ts > max {
			max = ts
		}
	}
	return max
}

// Timestamps returns the sorted timestamps present in h.
func (h History) Timestamps() []TS {
	out := make([]TS, 0, len(h))
	for ts := range h {
		out = append(out, ts)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}
