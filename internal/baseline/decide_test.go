package baseline

// White-box tests of the baseline decision rules on hand-crafted reply
// sets — the quorum-intersection arithmetic checked value by value.

import (
	"testing"

	"repro/internal/quorum"
	"repro/internal/types"
)

func pair(ts types.TS, v string) types.TSVal {
	if v == "" && ts == 0 {
		return types.InitTSVal()
	}
	return types.TSVal{TS: ts, Val: types.Value(v)}
}

// single returns the table in which each object of ps reports its pair
// in both fields.
func single(ps map[types.ObjectID]types.TSVal) *Reports {
	r := NewReports(8)
	for id, p := range ps {
		r.Put(id, p, p)
	}
	return r
}

// table returns the table of the two-field reports reps over S objects.
func table(cfg quorum.Config, reps map[types.ObjectID]report) *Reports {
	r := NewReports(cfg.S)
	for id, p := range reps {
		r.Put(id, p.pw, p.w)
	}
	return r
}

func TestFastSafeDecideRequiresSupport(t *testing.T) {
	// b+1 = 2 identical pairs needed.
	latest := map[types.ObjectID]types.TSVal{
		0: pair(3, "x"),
		1: pair(3, "x"),
		2: pair(9, "forged"), // lone Byzantine high pair
		3: pair(1, "old"),
	}
	got, ok := single(latest).Supported(2)
	if !ok {
		t.Fatal("undecided")
	}
	if got.TS != 3 || !got.Val.Equal(types.Value("x")) {
		t.Errorf("decide = %v, want ⟨3,x⟩ (forged pair lacks support)", got)
	}
}

func TestFastSafeDecideValueAware(t *testing.T) {
	// Same timestamp, different values: support must not merge them.
	latest := map[types.ObjectID]types.TSVal{
		0: pair(3, "x"),
		1: pair(3, "y"),
		2: pair(3, "z"),
	}
	if _, ok := single(latest).Supported(2); ok {
		t.Error("three distinct values at ts 3 must not reach support 2")
	}
}

func TestFastSafeDecideUndecidedBelowQuorum(t *testing.T) {
	latest := map[types.ObjectID]types.TSVal{0: pair(1, "x")}
	if _, ok := single(latest).Supported(2); ok {
		t.Error("single reply cannot decide with need=2")
	}
}

func TestMultiRoundDecideSkipsRefutedForgery(t *testing.T) {
	cfg := quorum.Optimal(2, 1, 1) // S=6, refute at 4, support at 2
	latest := map[types.ObjectID]report{
		0: {pw: pair(9, "forged"), w: pair(9, "forged")},
		1: {pw: pair(2, "real"), w: pair(2, "real")},
		2: {pw: pair(2, "real"), w: pair(2, "real")},
		3: {pw: pair(2, "real"), w: pair(2, "real")},
		4: {pw: pair(2, "real"), w: pair(2, "real")},
	}
	got, ok := table(cfg, latest).Decide(cfg)
	if !ok {
		t.Fatal("undecided: the forgery has 4 refuters and must be skipped")
	}
	if !got.Val.Equal(types.Value("real")) {
		t.Errorf("decide = %v", got)
	}
}

func TestMultiRoundDecideBlocksOnPlausibleHigh(t *testing.T) {
	cfg := quorum.Optimal(2, 1, 1)
	// Only 3 < t+b+1 reports below the forgery: it stays plausible and
	// under-supported, so the reader must keep waiting — never return
	// the lower value past an unresolved higher candidate.
	latest := map[types.ObjectID]report{
		0: {pw: pair(9, "forged"), w: pair(9, "forged")},
		1: {pw: pair(2, "real"), w: pair(2, "real")},
		2: {pw: pair(2, "real"), w: pair(2, "real")},
		3: {pw: pair(2, "real"), w: pair(2, "real")},
	}
	if got, ok := table(cfg, latest).Decide(cfg); ok {
		t.Fatalf("decided %v with an unresolved higher candidate", got)
	}
}

func TestMultiRoundDecidePWCountsAsSupport(t *testing.T) {
	cfg := quorum.Optimal(1, 1, 1) // S=4, support 2
	// One object committed (w), another only pre-wrote (pw): together
	// they support the pair.
	latest := map[types.ObjectID]report{
		0: {pw: pair(1, "v"), w: pair(1, "v")},
		1: {pw: pair(1, "v"), w: pair(0, "")},
		2: {pw: pair(0, ""), w: pair(0, "")},
	}
	got, ok := table(cfg, latest).Decide(cfg)
	if !ok {
		t.Fatal("undecided")
	}
	if got.TS != 1 {
		t.Errorf("decide = %v, want ts 1", got)
	}
}

func TestMultiRoundDecideBottomWhenAllInitial(t *testing.T) {
	cfg := quorum.Optimal(1, 1, 1)
	latest := map[types.ObjectID]report{
		0: {pw: pair(0, ""), w: pair(0, "")},
		1: {pw: pair(0, ""), w: pair(0, "")},
		2: {pw: pair(0, ""), w: pair(0, "")},
	}
	got, ok := table(cfg, latest).Decide(cfg)
	if !ok {
		t.Fatal("undecided on an all-initial view")
	}
	if !got.Val.IsBottom() || got.TS != 0 {
		t.Errorf("decide = %v, want ⟨0,⊥⟩", got)
	}
}

func TestMultiRoundDecideEqualTSForgery(t *testing.T) {
	cfg := quorum.Optimal(2, 2, 1) // S=7, support 3
	// A Byzantine object forges a different value at the same ts as the
	// real write: exact-match support keeps them apart, and the real
	// value's three holders win.
	// All five correct objects have reported (t+b+1 = 5 refutation
	// witnesses are what eventually unblocks the scan).
	latest := map[types.ObjectID]report{
		0: {pw: pair(2, "evil"), w: pair(2, "evil")},
		1: {pw: pair(2, "real"), w: pair(2, "real")},
		2: {pw: pair(2, "real"), w: pair(2, "real")},
		3: {pw: pair(2, "real"), w: pair(2, "real")},
		4: {pw: pair(0, ""), w: pair(0, "")},
		5: {pw: pair(0, ""), w: pair(0, "")},
	}
	got, ok := table(cfg, latest).Decide(cfg)
	if !ok {
		t.Fatal("undecided")
	}
	if !got.Val.Equal(types.Value("real")) {
		t.Errorf("decide = %v, want the 3-supported value", got)
	}
}

func TestAuthSignatures(t *testing.T) {
	keys, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	sig := keys.Sign(7, types.Value("v"))
	if !keys.Verify(7, types.Value("v"), sig) {
		t.Error("genuine signature rejected")
	}
	if keys.Verify(8, types.Value("v"), sig) {
		t.Error("signature valid for a different timestamp")
	}
	if keys.Verify(7, types.Value("w"), sig) {
		t.Error("signature valid for a different value")
	}
	if keys.Verify(7, types.Value("v"), sig[:len(sig)-1]) {
		t.Error("truncated signature accepted")
	}
	other, err := GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	if other.Verify(7, types.Value("v"), sig) {
		t.Error("signature verified under a foreign key")
	}
	// The signed payload binds ts and value unambiguously: ⟨1, "23"⟩
	// and ⟨12, "3"⟩ must not collide (fixed-width ts prefix).
	s1 := keys.Sign(1, types.Value("23"))
	if keys.Verify(12, types.Value("3"), s1) {
		t.Error("payload framing ambiguous")
	}
}

// TestMultiRoundDecideIgnoresMapOrder: a decision is a function of the
// reports alone. Objects 0 and 1 report ⟨5,a⟩ and the Byzantine object
// 2 reports ⟨5,x⟩ (S=4, t=b=1): ⟨5,a⟩ has b+1 supporters and a single
// refuter, so the reader returns it on every call. In the fast-safe
// case two values at one timestamp both have b+1 identical reports, and
// the value of the lowest reporting object wins.
func TestMultiRoundDecideIgnoresMapOrder(t *testing.T) {
	cfg := quorum.Optimal(1, 1, 1)
	a, x := pair(5, "a"), pair(5, "x")
	for i := 0; i < 200; i++ {
		got, ok := table(cfg, map[types.ObjectID]report{0: {pw: a, w: a}, 1: {pw: a, w: a}, 2: {pw: x, w: x}}).Decide(cfg)
		if !ok || !got.Equal(a) {
			t.Fatalf("call %d: multi-round decide = %v, %v; want ⟨5,a⟩", i, got, ok)
		}
		got, ok = single(map[types.ObjectID]types.TSVal{0: a, 1: x, 2: a, 3: x}).Supported(2)
		if !ok || !got.Equal(a) {
			t.Fatalf("call %d: fast-safe decide = %v, %v; want ⟨5,a⟩", i, got, ok)
		}
	}
}
