package store

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/membership"
	"repro/internal/recovery"
	"repro/internal/transport"
	"repro/internal/transport/fault"
	"repro/internal/transport/memnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// openMembershipStore builds a single-shard t=1, b=0 deployment (S = 3)
// with manual fault control, recovery, and membership enabled.
func openMembershipStore(t *testing.T, tcp bool) *Store {
	t.Helper()
	s, err := Open(Options{
		T: 1, B: 0,
		ReadersPerShard: 2,
		Semantics:       RegularOpt,
		TCP:             tcp,
		Faults:          &fault.Plan{Seed: 7, Faulty: 1},
		Recovery:        &recovery.Policy{Retry: 5 * time.Millisecond},
		Membership:      &membership.Policy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestMembershipRequiresRecovery: a membership policy without the
// catch-up subsystem is a configuration error — a replacement object
// could never rebuild its registers.
func TestMembershipRequiresRecovery(t *testing.T) {
	if _, err := Open(Options{T: 1, B: 0, Membership: &membership.Policy{}}); err == nil {
		t.Fatal("membership without recovery must be rejected")
	}
}

// TestDonorValidationThresholdMustBeCollectible: a cross-validation
// threshold above the catch-up quorum would make every entry
// unvouchable — a catch-up would install EMPTY state behind a lifted
// fence — so Open refuses it.
func TestDonorValidationThresholdMustBeCollectible(t *testing.T) {
	_, err := Open(Options{
		T: 2, B: 1, // default quorum t+b+1 = 4
		Recovery: &recovery.Policy{CrossValidate: true, Vouchers: 7},
	})
	if err == nil {
		t.Fatal("vouchers above the catch-up quorum must be rejected")
	}
	// The defaulted threshold (b+1 ≤ quorum) is fine.
	s, err := Open(Options{T: 2, B: 1, Recovery: &recovery.Policy{CrossValidate: true}})
	if err != nil {
		t.Fatalf("defaulted cross-validation rejected: %v", err)
	}
	s.Close()
}

// TestReplaceArgumentValidation: Replace refuses to run without a
// membership policy, and rejects out-of-range shards and slots and
// stale explicit addresses.
func TestReplaceArgumentValidation(t *testing.T) {
	ctx := testCtx(t)
	plain, err := Open(Options{T: 1, B: 0})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Replace(ctx, 0, 0, 0); err == nil {
		t.Fatal("Replace without membership must be rejected")
	}
	if _, ok := plain.MemberView(0); ok {
		t.Fatal("MemberView without membership must report false")
	}

	s := openMembershipStore(t, false)
	if _, err := s.Replace(ctx, 5, 0, 0); err == nil {
		t.Fatal("out-of-range shard accepted")
	}
	if _, err := s.Replace(ctx, 0, 9, 0); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
	if _, err := s.Replace(ctx, 0, 0, 1); err == nil {
		t.Fatal("non-fresh explicit address accepted (collides with a current member)")
	}
}

// replaceLive is the end-to-end replacement scenario: writes land, the
// victim is killed for good, Replace swaps it for a fresh object at a
// new address, and the store keeps serving — with the stale client
// muxes healing through the signed redirect (observed in the stats) and
// post-flip reads observing every pre-flip completed write.
func replaceLive(t *testing.T, tcp bool) {
	t.Helper()
	s := openMembershipStore(t, tcp)
	ctx := testCtx(t)
	keys := []string{"m/a", "m/b", "m/c", "m/d"}

	lastTS := make(map[string]types.TS)
	writeAll := func(round int) {
		t.Helper()
		for _, k := range keys {
			ts, err := s.WriteTS(ctx, k, types.Value(fmt.Sprintf("%s=v%d", k, round)))
			if err != nil {
				t.Fatalf("write %s round %d: %v", k, round, err)
			}
			lastTS[k] = ts
		}
	}
	writeAll(0)
	preFlip := make(map[string]types.TS, len(keys))
	for k, ts := range lastTS {
		preFlip[k] = ts
	}

	// Kill slot 0's object for good: no restart is coming. The workload
	// keeps completing on the surviving S−t = 2 objects.
	victim := transport.Object(0)
	fn := s.FaultNet(0)
	fn.CrashObject(victim)
	writeAll(1)

	view, err := s.Replace(ctx, 0, 0, 0)
	if err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if view.Epoch != 1 {
		t.Fatalf("successor view epoch %d, want 1", view.Epoch)
	}
	if view.Members[0] != s.cfg.S {
		t.Fatalf("replacement address %d, want auto-allocated %d", view.Members[0], s.cfg.S)
	}
	got, ok := s.MemberView(0)
	if !ok || got.Epoch != view.Epoch || got.Members[0] != view.Members[0] {
		t.Fatalf("MemberView %v ok=%v, want %v", got, ok, view)
	}

	// The client muxes still hold the epoch-0 view: their next ops are
	// redirected by the surviving members and must complete after one
	// self-heal — and observe every write completed before the flip.
	for _, k := range keys {
		tv, err := s.Read(ctx, k)
		if err != nil {
			t.Fatalf("read %s after flip: %v", k, err)
		}
		if tv.TS < preFlip[k] {
			t.Fatalf("read %s after flip: ts %d older than pre-flip completed write %d", k, tv.TS, preFlip[k])
		}
	}
	writeAll(2)
	for _, k := range keys {
		tv, err := s.Read(ctx, k)
		if err != nil {
			t.Fatalf("read %s post-replacement: %v", k, err)
		}
		if tv.TS != lastTS[k] {
			t.Fatalf("read %s post-replacement: ts %d, want %d", k, tv.TS, lastTS[k])
		}
	}

	ms := s.MembershipStats()
	if ms.Replacements != 1 {
		t.Fatalf("membership stats: %v, want 1 replacement", ms)
	}
	if ms.Redirects == 0 || ms.Adoptions == 0 {
		t.Fatalf("stale clients did not heal through redirects: %v", ms)
	}
	rs := s.RecoveryStats()
	if rs.CatchUps < 1 || rs.RegsRestored < int64(len(keys)) {
		t.Fatalf("replacement state transfer not recorded: %+v", rs)
	}

	// The replacement answers protocol traffic at its fresh address
	// (white-box: its registry serves the keys, at least as fresh as the
	// writes that completed before the flip).
	recovered := map[string]types.TS{}
	s.shards[0].mmu.Lock()
	for _, st := range s.shards[0].objs[0].SnapshotRegs() {
		recovered[st.Reg] = st.TS
	}
	s.shards[0].mmu.Unlock()
	for _, k := range keys {
		if recovered[k] < preFlip[k] {
			t.Fatalf("replacement holds %s at ts %d, older than pre-flip %d", k, recovered[k], preFlip[k])
		}
	}
}

// TestReplaceLiveMemnet: the full replacement flow over the in-memory
// transport.
func TestReplaceLiveMemnet(t *testing.T) {
	replaceLive(t, false)
}

// TestReplaceLiveTCPNet: the same flow over real sockets — the evicted
// object's listener closes for good and the replacement listens on a
// fresh port.
func TestReplaceLiveTCPNet(t *testing.T) {
	replaceLive(t, true)
}

// TestReplaceByzantineSlotRestoresHonesty: replacing the Byzantine
// member with a fresh honest object restores the shard to an all-honest
// configuration — the administrative cure for a detected adversary.
// The replacement must join quorums (it gains a recovery manager and a
// donated state) and serve honest values.
func TestReplaceByzantineSlotRestoresHonesty(t *testing.T) {
	s, err := Open(Options{
		T: 2, B: 1, // S = 6; catch-up quorum 4 ≤ 6−1−1 honest donors
		ReadersPerShard: 2,
		Semantics:       RegularOpt,
		ByzPerShard:     1,
		Recovery:        &recovery.Policy{Retry: 5 * time.Millisecond},
		Membership:      &membership.Policy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)

	byzSlot := types.ObjectID(s.cfg.S - 1)
	if err := s.Write(ctx, "honest", types.Value("v1")); err != nil {
		t.Fatal(err)
	}
	view, err := s.Replace(ctx, 0, byzSlot, 0)
	if err != nil {
		t.Fatalf("Replace Byzantine slot: %v", err)
	}
	if view.Members[byzSlot] != s.cfg.S {
		t.Fatalf("replacement address %d, want %d", view.Members[byzSlot], s.cfg.S)
	}
	if err := s.Write(ctx, "honest", types.Value("v2")); err != nil {
		t.Fatal(err)
	}
	tv, err := s.Read(ctx, "honest")
	if err != nil {
		t.Fatal(err)
	}
	if string(tv.Val) != "v2" {
		t.Fatalf("read %q after Byzantine replacement, want v2", tv.Val)
	}
	// The replaced slot now has a catch-up manager like any honest
	// member (Byzantine slots have none).
	s.shards[0].mmu.Lock()
	_, managed := s.shards[0].managers[int(byzSlot)]
	s.shards[0].mmu.Unlock()
	if !managed {
		t.Fatal("replacement of the Byzantine slot gained no recovery manager")
	}
}

// TestReplaceSequentialReusesNothing: two successive replacements of
// the same slot allocate strictly fresh addresses and bump the epoch
// each time; clients follow through repeated redirects.
func TestReplaceSequentialReusesNothing(t *testing.T) {
	s := openMembershipStore(t, false)
	ctx := testCtx(t)
	if err := s.Write(ctx, "seq", types.Value("v0")); err != nil {
		t.Fatal(err)
	}
	first, err := s.Replace(ctx, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(ctx, "seq", types.Value("v1")); err != nil {
		t.Fatal(err)
	}
	second, err := s.Replace(ctx, 0, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if second.Epoch != 2 || second.Members[1] == first.Members[1] || second.Members[1] != first.Members[1]+1 {
		t.Fatalf("second replacement view %v after first %v: want epoch 2 and a fresh address", second, first)
	}
	if err := s.Write(ctx, "seq", types.Value("v2")); err != nil {
		t.Fatal(err)
	}
	tv, err := s.Read(ctx, "seq")
	if err != nil {
		t.Fatal(err)
	}
	if string(tv.Val) != "v2" {
		t.Fatalf("read %q after two replacements, want v2", tv.Val)
	}
}

// TestMuxDropsRepliesFromEvictedAddresses: the client mux admits a
// reply only when its sender's address is in the current member view —
// a zombie reply from an endpoint evicted by reconfiguration is
// discarded and counted, while a current member's reply is delivered
// with its address translated back to the logical slot the protocol
// clients validate against.
func TestMuxDropsRepliesFromEvictedAddresses(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	ctx := testCtx(t)

	client, err := net.Register(transport.Reader(0))
	if err != nil {
		t.Fatal(err)
	}
	// Senders: address 0 was slot 0 before a flip (now evicted);
	// address 3 is slot 0's current home.
	evicted, err := net.Register(transport.NodeID{Kind: transport.KindObject, Index: 0})
	if err != nil {
		t.Fatal(err)
	}
	current, err := net.Register(transport.NodeID{Kind: transport.KindObject, Index: 3})
	if err != nil {
		t.Fatal(err)
	}

	auth := membership.NewAuth([]byte("k"))
	counters := &membership.Counters{}
	m := newMux(client)
	defer m.close()
	m.enableMembership(auth, counters, membership.View{Shard: 0, Epoch: 1, Members: []int{3, 1, 2}})
	rc := m.register("q")

	reply := func(from transport.Conn, ts types.TS) {
		from.Send(transport.Reader(0), wire.RegOp{Reg: "q", Msg: wire.WAck{ObjectID: 0, TS: ts}})
	}
	reply(evicted, 99) // from the evicted address: must be dropped
	reply(current, 7)  // from the current member: must be delivered as slot 0

	msg, err := rc.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if msg.From != transport.Object(0) {
		t.Fatalf("delivered reply From %v, want logical slot object0", msg.From)
	}
	if ack := msg.Payload.(wire.WAck); ack.TS != 7 {
		t.Fatalf("delivered ack ts %d — the evicted sender's forged ack got through", ack.TS)
	}
	short, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	defer cancel()
	if extra, err := rc.Recv(short); err == nil {
		t.Fatalf("unexpected second delivery %v — evicted reply not dropped", extra)
	}
	if got := counters.StaleReplies.Load(); got != 1 {
		t.Fatalf("StaleReplies = %d, want 1", got)
	}
}

// TestConcurrentOpsDuringReplace: a replacement mid-workload never
// wedges or corrupts concurrent writers and readers (the soak-level
// version lives in internal/harness; this is the unit-sized cut).
func TestConcurrentOpsDuringReplace(t *testing.T) {
	s := openMembershipStore(t, false)
	ctx := testCtx(t)
	stop := make(chan struct{})
	var opErr atomic.Value
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			k := fmt.Sprintf("c/%d", i%4)
			if err := s.Write(ctx, k, types.Value(fmt.Sprintf("v%d", i))); err != nil {
				opErr.Store(err)
				return
			}
			if _, err := s.Read(ctx, k); err != nil {
				opErr.Store(err)
				return
			}
		}
	}()
	time.Sleep(20 * time.Millisecond)
	if _, err := s.Replace(ctx, 0, 2, 0); err != nil {
		t.Fatalf("Replace under load: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	<-done
	if err := opErr.Load(); err != nil {
		t.Fatalf("workload failed across the flip: %v", err)
	}
}
