package types

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestValueBottom(t *testing.T) {
	if !Value(nil).IsBottom() {
		t.Error("nil must be ⊥")
	}
	if Value("x").IsBottom() {
		t.Error("non-empty value is not ⊥")
	}
	if Value(nil).Equal(Value("x")) || Value("x").Equal(nil) {
		t.Error("⊥ equals only ⊥")
	}
	if !Value(nil).Equal(Value(nil)) {
		t.Error("⊥ must equal ⊥")
	}
	empty := Value{}
	if empty.IsBottom() {
		t.Error("empty non-nil value is distinct from ⊥")
	}
	if !InitTSVal().Equal(TSVal{TS: 0}) || InitTSVal().Equal(TSVal{TS: 0, Val: empty}) {
		t.Error("initial pair is ⟨0,⊥⟩")
	}
}

func TestValueCloneIndependence(t *testing.T) {
	v := Value("abc")
	c := v.Clone()
	c[0] = 'z'
	if v[0] != 'a' {
		t.Error("Clone must not alias")
	}
	if Value(nil).Clone() != nil {
		t.Error("⊥ clones to ⊥")
	}
}

func TestTSRVectorGetOutOfRange(t *testing.T) {
	v := NewTSRVector(2)
	if v.Get(0) != 0 || v.Get(1) != 0 {
		t.Error("fresh vector entries are 0")
	}
	if v.Get(-1) != NilReaderTS || v.Get(2) != NilReaderTS {
		t.Error("out-of-range entries are nil (Byzantine payload defence)")
	}
	var nilVec TSRVector
	if nilVec.Get(0) != NilReaderTS {
		t.Error("nil vector yields nil entries")
	}
}

func TestTSRMatrixEqualTreatsNilAsAbsent(t *testing.T) {
	a := TSRMatrix{0: TSRVector{1, 2}, 1: nil}
	b := TSRMatrix{0: TSRVector{1, 2}}
	if !a.Equal(b) || !b.Equal(a) {
		t.Error("nil vectors are equivalent to absent entries")
	}
	c := TSRMatrix{0: TSRVector{1, 3}}
	if a.Equal(c) {
		t.Error("different vectors must differ")
	}
}

func TestWTupleEqual(t *testing.T) {
	mk := func(ts TS, val string, ids ...ObjectID) WTuple {
		m := NewTSRMatrix()
		for _, id := range ids {
			vec := NewTSRVector(2)
			vec[0] = ReaderTS(int(id) + 10)
			m[id] = vec
		}
		return WTuple{TSVal: TSVal{TS: ts, Val: Value(val)}, TSR: m}
	}
	cases := []struct {
		a, b WTuple
		same bool
	}{
		{mk(1, "x", 0, 1), mk(1, "x", 0, 1), true},
		{mk(1, "x", 0, 1), mk(1, "x", 1, 0), true}, // map order irrelevant
		{mk(1, "x"), mk(1, "y"), false},
		{mk(1, "x"), mk(2, "x"), false},
		{mk(1, "x", 0), mk(1, "x", 1), false},
		{InitWTuple(), InitWTuple(), true},
	}
	for i, c := range cases {
		if got := c.a.Equal(c.b); got != c.same {
			t.Errorf("case %d: Equal = %v, want %v", i, got, c.same)
		}
	}
}

func TestWTupleCloneIsDeep(t *testing.T) {
	w := WTuple{TSVal: TSVal{TS: 3, Val: Value("v")}, TSR: TSRMatrix{0: TSRVector{1}}}
	c := w.Clone()
	c.TSR[0][0] = 99
	c.TSVal.Val[0] = 'z'
	if w.TSR[0][0] != 1 || w.TSVal.Val[0] != 'v' {
		t.Error("Clone must deep-copy matrix and value")
	}
}

func TestHistorySuffix(t *testing.T) {
	h := NewHistory()
	for ts := TS(1); ts <= 5; ts++ {
		w := WTuple{TSVal: TSVal{TS: ts, Val: Value("v")}, TSR: NewTSRMatrix()}
		h[ts] = HistEntry{PW: w.TSVal, W: &w}
	}
	suf := h.Suffix(3)
	if len(suf) != 3 {
		t.Fatalf("suffix(3) has %d entries, want 3 (ts 3,4,5)", len(suf))
	}
	if _, ok := suf[2]; ok {
		t.Error("suffix must exclude ts 2")
	}
	// The map is fresh: inserting or deleting leaves h unchanged. The
	// entries are shared, since they are immutable.
	delete(suf, 4)
	suf[9] = HistEntry{PW: TSVal{TS: 9, Val: Value("x")}}
	if len(h) != 6 || h[4].W == nil {
		t.Error("Suffix must return a map of its own")
	}
	if _, ok := h[9]; ok {
		t.Error("an insert into the suffix reached the original")
	}
	if suf[3].W != h[3].W {
		t.Error("Suffix must share entries, not copy them")
	}
	if h.MaxTS() != 5 {
		t.Errorf("MaxTS = %d, want 5", h.MaxTS())
	}
	if got := h.Timestamps(); len(got) != 6 || got[0] != 0 || got[5] != 5 {
		t.Errorf("Timestamps = %v", got)
	}
}

func TestHistoryEqual(t *testing.T) {
	mk := func(vals ...string) History {
		h := NewHistory()
		for i, v := range vals {
			w := WTuple{TSVal: TSVal{TS: TS(i + 1), Val: Value(v)}, TSR: NewTSRMatrix()}
			h[w.TSVal.TS] = HistEntry{PW: w.TSVal, W: &w}
		}
		return h
	}
	if !mk("a", "b").Equal(mk("a", "b")) || !History(nil).Equal(History{}) {
		t.Error("equal histories must compare equal")
	}
	moved := mk("a", "b")
	moved[5] = moved[2]
	delete(moved, 2)
	for i, o := range []History{mk("a"), mk("a", "c"), mk("a", "b", "c"), moved} {
		if mk("a", "b").Equal(o) || o.Equal(mk("a", "b")) {
			t.Errorf("case %d: different histories compare equal", i)
		}
	}
	pending := mk("a", "b")
	pending[2] = HistEntry{PW: pending[2].PW}
	if mk("a", "b").Equal(pending) {
		t.Error("a pending entry differs from a complete one")
	}
}

func TestHistEntryEqual(t *testing.T) {
	w := InitWTuple()
	a := HistEntry{PW: InitTSVal(), W: &w}
	b := HistEntry{PW: InitTSVal(), W: nil}
	if a.Equal(b) || b.Equal(a) {
		t.Error("nil vs non-nil W must differ")
	}
	if !b.Equal(HistEntry{PW: InitTSVal()}) {
		t.Error("both-nil W entries with equal PW are equal")
	}
}

// Property tests (testing/quick) on the core data structures.

// genValue draws a short random value (possibly ⊥).
func genValue(r *rand.Rand) Value {
	if r.Intn(5) == 0 {
		return nil
	}
	n := r.Intn(6)
	v := make(Value, n)
	for i := range v {
		v[i] = byte(r.Intn(256))
	}
	return v
}

func genTuple(r *rand.Rand) WTuple {
	m := NewTSRMatrix()
	for i := 0; i < r.Intn(4); i++ {
		vec := NewTSRVector(1 + r.Intn(3))
		for k := range vec {
			vec[k] = ReaderTS(r.Intn(5)) - 1 // includes NilReaderTS
		}
		m[ObjectID(r.Intn(5))] = vec
	}
	return WTuple{TSVal: TSVal{TS: TS(r.Intn(4)), Val: genValue(r)}, TSR: m}
}

func TestQuickCloneEqualsOriginal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		w := genTuple(r)
		c := w.Clone()
		return w.Equal(c) && c.Equal(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickValueEqualSymmetricReflexive(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		ra, rb := rand.New(rand.NewSource(seedA)), rand.New(rand.NewSource(seedB))
		a, b := genValue(ra), genValue(rb)
		if !a.Equal(a) || !b.Equal(b) {
			return false
		}
		return a.Equal(b) == b.Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickHistorySuffixSubset(t *testing.T) {
	f := func(seed int64, fromRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		h := NewHistory()
		for i := 0; i < r.Intn(10); i++ {
			ts := TS(r.Intn(12))
			w := genTuple(r)
			h[ts] = HistEntry{PW: w.TSVal, W: &w}
		}
		from := TS(fromRaw % 12)
		suf := h.Suffix(from)
		for ts, e := range suf {
			if ts < from {
				return false
			}
			if !e.Equal(h[ts]) {
				return false
			}
		}
		for ts := range h {
			if ts >= from {
				if _, ok := suf[ts]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickMatrixEqualCongruentWithClone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := genTuple(r).TSR
		c := m.Clone()
		if !m.Equal(c) {
			return false
		}
		// Deep independence: mutate the clone, original unchanged.
		for id, vec := range c {
			if len(vec) > 0 {
				vec[0] = 1234
				return !m.Equal(c) || m[id].Get(0) != 1234 || reflect.DeepEqual(m, c)
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
