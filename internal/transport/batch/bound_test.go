package batch

import (
	"context"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/flow"
	"repro/internal/wire"
)

// TestPendingBudgetPushback: an op that would exceed the endpoint's
// pending budget is refused with a synthetic Busy from its destination
// — delivered to Recv immediately, never deadlocking Send — and the
// budget frees as soon as the pending ops ship.
func TestPendingBudgetPushback(t *testing.T) {
	inner := newFakeConn()
	ctrs := &flow.Counters{}
	c := NewConn(inner, Options{
		FlushWindow:   time.Hour, // nothing ships on its own
		MaxBatch:      64,
		PendingBudget: 2,
		ActivationOps: AlwaysCoalesce,
		Counters:      ctrs,
	})
	obj := transport.Object(0)
	c.Send(obj, wire.BaselineReadReq{Attempt: 0})
	c.Send(obj, wire.BaselineReadReq{Attempt: 1})
	c.Send(obj, wire.RegOp{Reg: "k", Op: 2, Msg: wire.BaselineReadReq{Attempt: 2}}) // over budget: pushback

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	m, err := c.Recv(ctx)
	if err != nil {
		t.Fatalf("pushback not delivered: %v", err)
	}
	busy, ok := m.Payload.(wire.Busy)
	if !ok {
		t.Fatalf("got %T, want the synthetic Busy", m.Payload)
	}
	if m.From != obj {
		t.Fatalf("Busy attributed to %v, want the destination %v", m.From, obj)
	}
	if len(busy.Ops) != 1 || busy.Ops[0] != (wire.OpRef{Reg: "k", Op: 2}) {
		t.Fatalf("Busy names %+v, want the refused op k/2", busy.Ops)
	}
	if len(inner.frames()) != 0 {
		t.Fatal("refused op must not reach the wire")
	}
	s := ctrs.Snapshot()
	if s.BatchPushbacks != 1 {
		t.Fatalf("BatchPushbacks = %d, want 1", s.BatchPushbacks)
	}
	if s.BatchHighWater != 2 {
		t.Fatalf("BatchHighWater = %d, want the budget ceiling 2", s.BatchHighWater)
	}

	// Shipping the held batch frees the budget: the retry is accepted.
	c.Flush()
	if got := len(inner.frames()); got != 1 {
		t.Fatalf("flush shipped %d frames, want 1 coalesced batch", got)
	}
	c.Send(obj, wire.BaselineReadReq{Attempt: 3})
	c.Flush()
	if got := len(inner.frames()); got != 2 {
		t.Fatalf("retry after free budget did not ship: %d frames", got)
	}
}

// TestPendingBudgetPushbackWakesParkedReceiver is the bounded-rewrite
// regression of the PR 2 single-flight stall: a lone receiver parked
// inside the idle inner read must observe a synthetic pushback queued
// locally — pushLocal interrupts the inner read instead of waiting for
// unrelated socket traffic.
func TestPendingBudgetPushbackWakesParkedReceiver(t *testing.T) {
	inner := &countingConn{fakeConn: newFakeConn()}
	c := NewConn(inner, Options{FlushWindow: time.Hour, MaxBatch: 64, PendingBudget: 1, ActivationOps: AlwaysCoalesce})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	got := make(chan transport.Message, 1)
	go func() {
		m, err := c.Recv(ctx)
		if err == nil {
			got <- m
		}
	}()
	deadline := time.Now().Add(time.Second)
	for inner.inRecv.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if inner.inRecv.Load() != 1 {
		t.Fatal("receiver never parked inside the inner read")
	}

	obj := transport.Object(1)
	c.Send(obj, wire.BaselineReadReq{Attempt: 0}) // fills the budget
	c.Send(obj, wire.BaselineReadReq{Attempt: 1}) // pushback while parked

	select {
	case m := <-got:
		if _, ok := m.Payload.(wire.Busy); !ok {
			t.Fatalf("parked receiver woke with %T, want Busy", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("pushback stalled behind the idle inner read")
	}
}

// TestSingleFlightSurvivesBoundedRewrite re-runs the PR 2 cross-
// receiver wakeup scenario with a pending budget configured: bounded
// Send-side state must not regress the single-flighted Recv path.
func TestSingleFlightSurvivesBoundedRewrite(t *testing.T) {
	inner := &countingConn{fakeConn: newFakeConn()}
	c := NewConn(inner, Options{PendingBudget: 8, ActivationOps: AlwaysCoalesce})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	results := make(chan wire.Msg, 2)
	for i := 0; i < 2; i++ {
		go func() {
			m, err := c.Recv(ctx)
			if err != nil {
				return
			}
			results <- m.Payload
		}()
	}
	deadline := time.Now().Add(time.Second)
	for inner.inRecv.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if n := inner.inRecv.Load(); n != 1 {
		t.Fatalf("inner read must stay single-flighted under bounds: %d receivers inside", n)
	}

	inner.inbox <- transport.Message{From: transport.Object(0), Payload: wire.Batch{Ops: []wire.Msg{
		wire.BaselineReadAck{ObjectID: 0, Attempt: 0},
		wire.BaselineReadAck{ObjectID: 0, Attempt: 1},
	}}}
	got := map[int]bool{}
	for i := 0; i < 2; i++ {
		select {
		case m := <-results:
			got[m.(wire.BaselineReadAck).Attempt] = true
		case <-time.After(2 * time.Second):
			t.Fatalf("receiver stalled: only %d of 2 batched ops delivered", i)
		}
	}
	if !got[0] || !got[1] {
		t.Fatalf("ops misdelivered: %v", got)
	}
}
