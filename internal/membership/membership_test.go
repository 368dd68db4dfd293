package membership

import (
	"testing"

	"repro/internal/transport"
	"repro/internal/wire"
)

func TestViewIdentityAndReplace(t *testing.T) {
	v := Identity(2, 4)
	if v.Epoch != 0 || v.Shard != 2 || len(v.Members) != 4 {
		t.Fatalf("identity view %v", v)
	}
	for i := 0; i < 4; i++ {
		if v.Addr(i) != (transport.NodeID{Kind: transport.KindObject, Index: i}) {
			t.Fatalf("identity addr of slot %d: %v", i, v.Addr(i))
		}
		if slot, ok := v.Slot(i); !ok || slot != i {
			t.Fatalf("identity slot of addr %d: %d ok=%v", i, slot, ok)
		}
	}
	next := v.Replace(1, 7)
	if next.Epoch != 1 || next.Members[1] != 7 {
		t.Fatalf("successor view %v", next)
	}
	if v.Members[1] != 1 {
		t.Fatalf("Replace mutated the receiver: %v", v)
	}
	if _, ok := next.Slot(1); ok {
		t.Fatal("evicted address 1 still resolves to a slot")
	}
	if slot, ok := next.Slot(7); !ok || slot != 1 {
		t.Fatalf("replacement address resolves to %d ok=%v", slot, ok)
	}
}

func TestAuthRoundTripAndTamperDetection(t *testing.T) {
	a := NewAuth([]byte("deployment-key"))
	v := Identity(0, 3).Replace(2, 5)
	cu := a.SignedUpdate(v)

	got, ok := a.VerifyUpdate(cu)
	if !ok {
		t.Fatal("authentic update rejected")
	}
	if got.Epoch != v.Epoch || got.Shard != v.Shard || got.Members[2] != 5 {
		t.Fatalf("round-tripped view %v, want %v", got, v)
	}

	// Any mutation of the signed surface must break verification.
	for name, mutate := range map[string]func(wire.ConfigUpdate) wire.ConfigUpdate{
		"epoch":   func(c wire.ConfigUpdate) wire.ConfigUpdate { c.Epoch++; return c },
		"shard":   func(c wire.ConfigUpdate) wire.ConfigUpdate { c.Shard++; return c },
		"member":  func(c wire.ConfigUpdate) wire.ConfigUpdate { c = c.Clone(); c.Members[0] = 9; return c },
		"sig-bit": func(c wire.ConfigUpdate) wire.ConfigUpdate { c = c.Clone(); c.Sig[0] ^= 1; return c },
	} {
		if _, ok := a.VerifyUpdate(mutate(cu)); ok {
			t.Fatalf("tampered update (%s) verified", name)
		}
	}
	// A different key never verifies (no cross-deployment hijack).
	if _, ok := NewAuth([]byte("other-key")).VerifyUpdate(cu); ok {
		t.Fatal("update verified under a foreign key")
	}
}

// echoHandler replies to RegOps and records bare traffic.
type echoHandler struct{ bare int }

func (e *echoHandler) Handle(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	if op, ok := req.(wire.RegOp); ok {
		return wire.RegOp{Reg: op.Reg, Msg: wire.WAck{TS: 1}}, true
	}
	e.bare++
	return wire.StateResp{Seq: 42}, true
}

func TestGateServesCurrentAndRedirectsStale(t *testing.T) {
	inner := &echoHandler{}
	counters := &Counters{}
	g := NewGate(inner, counters, 0)
	from := transport.Writer()
	op := wire.RegOp{Reg: "r", Cfg: wire.StampOf(0), Msg: wire.WReq{TS: 1}}

	// Current epoch: served, and the reply carries no configuration
	// stamp (clients admit replies by member list, not by epoch).
	reply, ok := g.Handle(from, op)
	if !ok {
		t.Fatal("current-epoch request not served")
	}
	if ro, isOp := reply.(wire.RegOp); !isOp || ro.Cfg != 0 {
		t.Fatalf("reply %#v, want an unstamped RegOp", reply)
	}

	// Advance: the same request is now stale and answered with the
	// signed redirect, not served.
	auth := NewAuth([]byte("k"))
	next := Identity(0, 3).Replace(0, 3)
	g.Advance(next.Epoch, auth.SignedUpdate(next))
	reply, ok = g.Handle(from, op)
	if !ok {
		t.Fatal("stale-epoch request got no redirect")
	}
	cu, isUpdate := reply.(wire.ConfigUpdate)
	if !isUpdate {
		t.Fatalf("stale-epoch reply %#v, want ConfigUpdate", reply)
	}
	if v, authentic := auth.VerifyUpdate(cu); !authentic || v.Epoch != 1 || v.Members[0] != 3 {
		t.Fatalf("redirect carries %v authentic=%v", v, authentic)
	}
	if counters.Redirects.Load() != 1 {
		t.Fatalf("redirects counted: %d", counters.Redirects.Load())
	}

	// Future-epoch requests (a client that learned the flip before this
	// gate's Advance raced in) are served, not redirected.
	fresh := wire.RegOp{Reg: "r", Cfg: wire.StampOf(2), Msg: wire.WReq{TS: 2}}
	if _, ok := g.Handle(from, fresh); !ok {
		t.Fatal("future-epoch request rejected")
	}

	// An unstamped op (a client that never enabled membership) is not a
	// stale one: it is served, not redirected — the zero Stamp is not
	// epoch 0.
	if reply, ok := g.Handle(from, wire.RegOp{Reg: "r", Msg: wire.WReq{TS: 3}}); !ok {
		t.Fatal("unstamped op rejected")
	} else if _, isOp := reply.(wire.RegOp); !isOp {
		t.Fatalf("unstamped op answered with %#v, want it served", reply)
	}
	if counters.Redirects.Load() != 1 {
		t.Fatalf("redirects counted: %d, want still 1", counters.Redirects.Load())
	}
}

func TestGatePassesBareTrafficThrough(t *testing.T) {
	inner := &echoHandler{}
	g := NewGate(inner, &Counters{}, 3)
	reply, ok := g.Handle(transport.Recovery(0), wire.StateReq{Seq: 42})
	if !ok {
		t.Fatal("bare recovery traffic rejected")
	}
	if resp, isState := reply.(wire.StateResp); !isState || resp.Seq != 42 {
		t.Fatalf("bare traffic's reply was altered: %#v", reply)
	}
	if inner.bare != 1 {
		t.Fatalf("inner handler saw %d bare messages, want 1", inner.bare)
	}
}

func TestGateRegressionIgnored(t *testing.T) {
	auth := NewAuth([]byte("k"))
	g := NewGate(&echoHandler{}, &Counters{}, 0)
	v2 := Identity(0, 2).Replace(0, 2)
	v2 = v2.Replace(1, 3) // epoch 2
	g.Advance(v2.Epoch, auth.SignedUpdate(v2))
	g.Advance(1, auth.SignedUpdate(Identity(0, 2).Replace(0, 2))) // stale: ignored
	if got := g.Epoch(); got != 2 {
		t.Fatalf("gate epoch %d after stale Advance, want 2", got)
	}
}

// TestGateRetireSilencesEverything: a retired gate answers nothing —
// stamped ops, bare recovery traffic, nothing — so no write in flight
// during a replacement can count the retiring member toward a quorum;
// Unretire (the failed-replacement rollback) restores service.
func TestGateRetireSilencesEverything(t *testing.T) {
	inner := &echoHandler{}
	g := NewGate(inner, &Counters{}, 0)
	op := wire.RegOp{Reg: "r", Cfg: wire.StampOf(0), Msg: wire.WReq{TS: 1}}

	g.Retire()
	if _, ok := g.Handle(transport.Writer(), op); ok {
		t.Fatal("retired gate served a stamped op")
	}
	if _, ok := g.Handle(transport.Recovery(1), wire.StateReq{Seq: 1}); ok {
		t.Fatal("retired gate answered bare traffic")
	}
	if inner.bare != 0 {
		t.Fatal("retired gate forwarded traffic to the inner handler")
	}

	g.Unretire()
	if _, ok := g.Handle(transport.Writer(), op); !ok {
		t.Fatal("unretired gate still silent — a failed replacement would strand the member")
	}
}

func TestStatsAddAndString(t *testing.T) {
	a := Stats{Replacements: 1, Redirects: 2, Adoptions: 3, Replays: 4, StaleReplies: 5, BadUpdates: 6}
	sum := a.Add(a)
	if sum.Redirects != 4 || sum.BadUpdates != 12 {
		t.Fatalf("sum %+v", sum)
	}
	if s := sum.String(); s == "" {
		t.Fatal("empty stats rendering")
	}
}
