package store

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/recovery"
	"repro/internal/transport"
	"repro/internal/transport/fault"
	"repro/internal/transport/memnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// openRecoveryStore builds a single-shard t=1, b=0 deployment (S = 3,
// op quorum 2, recovery quorum t+b+1 = 2) with manual fault control and
// the amnesia catch-up subsystem enabled.
func openRecoveryStore(t *testing.T) *Store {
	t.Helper()
	s, err := Open(Options{
		T: 1, B: 0,
		ReadersPerShard: 2,
		Semantics:       RegularOpt,
		Faults:          &fault.Plan{Seed: 11, Faulty: 1},
		Recovery:        &recovery.Policy{Retry: 5 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func waitRecovered(t *testing.T, s *Store) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for s.RecoveringCount() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("catch-up did not complete")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRecoveryFencedObjectExcludedFromQuorums is the fencing regression
// test: after an amnesia restart whose catch-up responses are held in
// transit, the recovering object sends NOTHING (tap-observed) while
// reads and writes keep completing on the surviving quorum; healing the
// catch-up links lifts the fence, and the recovered object's registers
// hold the timestamp-dominant state.
func TestRecoveryFencedObjectExcludedFromQuorums(t *testing.T) {
	s := openRecoveryStore(t)
	ctx := testCtx(t)
	obj0 := transport.Object(0)
	keys := []string{"r/a", "r/b", "r/c", "r/d"}

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

	fn := s.FaultNet(0)
	fn.CrashObject(obj0)
	writeAll(1) // the state object 0 will have to recover
	preFenceTS := make(map[string]types.TS, len(keys))
	for k, ts := range lastTS {
		preFenceTS[k] = ts
	}

	// Hold the catch-up responses in transit so the fenced window is
	// observable, then restart object 0 with amnesia.
	for j := 1; j <= 2; j++ {
		fn.PartitionLink(transport.Object(types.ObjectID(j)), transport.Recovery(0))
	}
	var fromObj0 atomic.Int64
	s.AddTap(transport.TapFunc(func(from, _ transport.NodeID, _ wire.Msg) {
		if from == obj0 {
			fromObj0.Add(1)
		}
	}))
	fn.RestartObjectAmnesia(obj0)
	if got := s.RecoveringCount(); got != 1 {
		t.Fatalf("RecoveringCount after amnesia restart: %d, want 1", got)
	}

	// The deployment keeps serving: every op completes on the surviving
	// S−t = 2 objects while object 0 stays fenced and silent.
	writeAll(2)
	for _, k := range keys {
		tv, err := s.Read(ctx, k)
		if err != nil {
			t.Fatalf("read %s during fence: %v", k, err)
		}
		if tv.TS != lastTS[k] {
			t.Fatalf("read %s during fence: ts %d, want %d", k, tv.TS, lastTS[k])
		}
	}
	if got := s.RecoveringCount(); got != 1 {
		t.Fatalf("fence lifted while catch-up responses were held: RecoveringCount %d", got)
	}
	if got := fromObj0.Load(); got != 0 {
		t.Fatalf("fenced object sent %d messages — it must be excluded from quorums until caught up", got)
	}

	// Release the held catch-up responses: the fence lifts and the
	// recovered registers carry the dominant (latest) state.
	for j := 1; j <= 2; j++ {
		fn.HealLink(transport.Object(types.ObjectID(j)), transport.Recovery(0))
	}
	waitRecovered(t, s)
	rs := s.RecoveryStats()
	if rs.CatchUps != 1 {
		t.Fatalf("recovery stats: %+v, want 1 catch-up", rs)
	}
	if rs.RegsRestored < int64(len(keys)) {
		t.Fatalf("recovery stats: %+v, want ≥ %d registers restored", rs, len(keys))
	}

	// White-box: the wiped registry recovered every register at least as
	// fresh as the last write that completed before the amnesia restart
	// (writes during the fence never counted object 0 in their quorums,
	// so they owe it nothing), and each recovered state satisfies the
	// regular automaton's invariant: the complete tuple of the newest
	// completed write sits at TS (post-W snapshot) or TS−1 (a snapshot
	// taken between a concurrent write's PW and W rounds).
	recovered := map[string]wire.RegState{}
	for _, st := range s.shards[0].objs[0].SnapshotRegs() {
		recovered[st.Reg] = st
	}
	for _, k := range keys {
		st, ok := recovered[k]
		if !ok {
			t.Fatalf("register %s missing after catch-up", k)
		}
		if st.TS < preFenceTS[k] {
			t.Fatalf("register %s recovered at ts %d, older than the pre-restart write %d", k, st.TS, preFenceTS[k])
		}
		top, topOK := st.History[st.TS]
		prev, prevOK := st.History[st.TS-1]
		if !(topOK && top.W != nil) && !(prevOK && prev.W != nil) {
			t.Fatalf("register %s recovered without a complete tuple at ts %d or %d", k, st.TS, st.TS-1)
		}
	}

	// And the store still works end to end — with the fence lifted, the
	// recovered object answers these operations (tap-observed).
	writeAll(3)
	for _, k := range keys {
		tv, err := s.Read(ctx, k)
		if err != nil {
			t.Fatalf("read %s after recovery: %v", k, err)
		}
		if tv.TS != lastTS[k] {
			t.Fatalf("read %s after recovery: ts %d, want %d", k, tv.TS, lastTS[k])
		}
	}
	// The recovered object's acks are not needed for the quorum the ops
	// above waited on, so give its asynchronous replies a moment to land.
	deadline := time.Now().Add(10 * time.Second)
	for fromObj0.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if fromObj0.Load() == 0 {
		t.Fatal("recovered object still silent after serving a full write+read round")
	}
}

// TestRecoveryAmnesiaScheduleNeedsPolicy: an amnesia crash schedule
// without the catch-up subsystem is a configuration error, not a
// silently-degrading deployment.
func TestRecoveryAmnesiaScheduleNeedsPolicy(t *testing.T) {
	_, err := Open(Options{
		T: 1, B: 0,
		Faults: &fault.Plan{Faulty: 1, Crash: fault.CrashPlan{Cycles: 1, UpMax: time.Millisecond, DownMax: time.Millisecond, AmnesiaBias: 0.5}},
	})
	if err == nil {
		t.Fatal("amnesia schedule without a recovery policy must be rejected")
	}
}

// TestRecoveryRejectsSafeSemantics: safe automata have no transferable
// history, so recovery + safe is refused at Open.
func TestRecoveryRejectsSafeSemantics(t *testing.T) {
	_, err := Open(Options{T: 1, B: 1, Semantics: Safe, Recovery: &recovery.Policy{}})
	if err == nil {
		t.Fatal("recovery with safe semantics must be rejected")
	}
}

// TestRecoveryRejectsUnsatisfiableQuorum: a catch-up quorum no set of
// honest siblings can ever satisfy would fence a wiped object forever,
// so Open refuses it — both an oversized explicit quorum and a default
// quorum that Byzantine (donation-silent) siblings make unreachable.
func TestRecoveryRejectsUnsatisfiableQuorum(t *testing.T) {
	// S = 3, siblings 2, quorum 5: impossible.
	if _, err := Open(Options{T: 1, B: 0, Recovery: &recovery.Policy{Quorum: 5}}); err == nil {
		t.Fatal("quorum larger than the sibling count must be rejected")
	}
	// S = 4, default quorum t+b+1 = 3, honest siblings 4−1−1 = 2:
	// Byzantine objects never answer StateReq, so this cannot complete.
	if _, err := Open(Options{T: 1, B: 1, ByzPerShard: 1, Recovery: &recovery.Policy{}}); err == nil {
		t.Fatal("default quorum unreachable past silent Byzantine donors must be rejected")
	}
	// The same shape without the Byzantine object is satisfiable.
	s, err := Open(Options{T: 1, B: 1, Recovery: &recovery.Policy{}})
	if err != nil {
		t.Fatalf("satisfiable recovery shape rejected: %v", err)
	}
	s.Close()
}

// TestMuxRejectsStaleIncarnation: the client-side mux drops an
// incarnation-stamped reply whose incarnation is below the highest seen from
// that object — the zombie-reply fencing of the incarnation scheme.
// An echo object stamps each reply with the incarnation the request
// names, simulating replies from different lives of the same object.
func TestMuxRejectsStaleIncarnation(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	obj := transport.Object(0)
	err := net.Serve(obj, transport.HandlerFunc(func(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
		op, ok := req.(wire.RegOp)
		if !ok {
			return nil, false
		}
		n := op.Msg.(wire.BaselineReadReq).Attempt
		return wire.RegOp{Reg: op.Reg, Inc: wire.StampOf(int64(n)), Msg: wire.BaselineReadAck{Attempt: n}}, true
	}))
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Register(transport.Reader(0))
	if err != nil {
		t.Fatal(err)
	}
	m := newMux(conn)
	defer m.close()
	rc := m.register("k")
	ctx := testCtx(t)

	ask := func(inc int) { rc.Send(obj, wire.BaselineReadReq{Attempt: inc}) }
	recv := func() (int, bool) {
		short, cancel := context.WithTimeout(ctx, 100*time.Millisecond)
		defer cancel()
		msg, err := rc.Recv(short)
		if err != nil {
			return 0, false
		}
		return msg.Payload.(wire.BaselineReadAck).Attempt, true
	}

	ask(2)
	if got, ok := recv(); !ok || got != 2 {
		t.Fatalf("inc-2 reply: got %d ok=%v", got, ok)
	}
	ask(1) // stale: minted before the object's amnesia crash
	if got, ok := recv(); ok {
		t.Fatalf("stale-incarnation reply delivered (inc %d)", got)
	}
	ask(2)
	if got, ok := recv(); !ok || got != 2 {
		t.Fatalf("current-incarnation reply after the stale one: got %d ok=%v", got, ok)
	}
}
