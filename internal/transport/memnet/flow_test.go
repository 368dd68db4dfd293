package memnet

import (
	"context"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/flow"
	"repro/internal/types"
	"repro/internal/wire"
)

// wreq is write request ts behind a register header whose trace ID is
// ts too, so a Busy notice identifies the request it bounced.
func wreq(ts types.TS) wire.Msg {
	return wire.RegOp{Reg: "r", Op: uint64(ts), Msg: wire.WReq{TS: ts}}
}

// TestObjectQueueBusyPushback: a base object whose bounded request
// queue is full answers a wire.Busy naming the request instead of queueing without
// bound — overload becomes a signal, not growth.
func TestObjectQueueBusyPushback(t *testing.T) {
	n := New()
	defer n.Close()
	ctrs := &flow.Counters{}
	n.SetFlow(flow.Options{ObjectBudget: 1, LinkBudget: 16}, ctrs)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	obj := transport.Object(0)
	err := n.Serve(obj, transport.HandlerFunc(func(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
		entered <- struct{}{}
		<-release
		return wire.WAck{ObjectID: 0, TS: req.(wire.RegOp).Msg.(wire.WReq).TS}, true
	}))
	if err != nil {
		t.Fatal(err)
	}
	c, err := n.Register(transport.Writer())
	if err != nil {
		t.Fatal(err)
	}

	c.Send(obj, wreq(1))
	<-entered // the handler now holds request 1; the queue is empty again
	// Sends are synchronous without a delay function, so request 2
	// occupies the single queue slot before request 3 is judged.
	c.Send(obj, wreq(2))
	c.Send(obj, wreq(3)) // queue full: bounced

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m, err := c.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	busy, ok := m.Payload.(wire.Busy)
	if !ok {
		t.Fatalf("first delivery = %T, want the Busy pushback", m.Payload)
	}
	if m.From != obj {
		t.Fatalf("Busy from %v, want %v", m.From, obj)
	}
	if len(busy.Ops) != 1 || busy.Ops[0] != (wire.OpRef{Reg: "r", Op: 3}) {
		t.Fatalf("Busy names %+v, want the rejected request 3", busy.Ops)
	}

	close(release)
	seen := map[types.TS]bool{}
	for i := 0; i < 2; i++ {
		m, err := c.Recv(ctx)
		if err != nil {
			t.Fatal(err)
		}
		seen[m.Payload.(wire.WAck).TS] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("queued requests not served after release: %v", seen)
	}
	if hw := ctrs.Snapshot().ObjectHighWater; hw > 1 {
		t.Fatalf("object queue depth %d exceeded budget 1", hw)
	}
}

// TestPerSenderQueueShare: one sender's share of an object's request
// queue is capped at LinkBudget even while the total budget has room,
// so a flooding client is pushed back before it monopolizes the queue.
func TestPerSenderQueueShare(t *testing.T) {
	n := New()
	defer n.Close()
	ctrs := &flow.Counters{}
	n.SetFlow(flow.Options{ObjectBudget: 64, LinkBudget: 2}, ctrs)

	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	obj := transport.Object(0)
	if err := n.Serve(obj, transport.HandlerFunc(func(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
		entered <- struct{}{}
		<-release
		return nil, false
	})); err != nil {
		t.Fatal(err)
	}
	flooder, err := n.Register(transport.Writer())
	if err != nil {
		t.Fatal(err)
	}
	other, err := n.Register(transport.Reader(0))
	if err != nil {
		t.Fatal(err)
	}

	flooder.Send(obj, wreq(1))
	<-entered // request 1 popped; the flooder's queued share is now 0
	flooder.Send(obj, wreq(2))
	flooder.Send(obj, wreq(3))
	flooder.Send(obj, wreq(4)) // over the per-sender share: bounced

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m, err := flooder.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	busy, ok := m.Payload.(wire.Busy)
	if !ok || len(busy.Ops) != 1 || busy.Ops[0].Op != 4 {
		t.Fatalf("flooder got %T %v, want Busy naming request 4", m.Payload, m.Payload)
	}
	// The other sender still has queue room: no pushback for it.
	other.Send(obj, wreq(9))
	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	if m, err := other.Recv(short); err == nil {
		t.Fatalf("well-behaved sender was pushed back: %T", m.Payload)
	}
	if hw := ctrs.Snapshot().LinkHighWater; hw > 2 {
		t.Fatalf("per-sender share %d exceeded budget 2", hw)
	}
	close(release)
}

// TestFlowOffUnbounded: without SetFlow, queues keep the historical
// unbounded semantics — no Busy is ever produced.
func TestFlowOffUnbounded(t *testing.T) {
	n := New()
	defer n.Close()
	obj := transport.Object(0)
	block := make(chan struct{})
	if err := n.Serve(obj, transport.HandlerFunc(func(transport.NodeID, wire.Msg) (wire.Msg, bool) {
		<-block
		return nil, false
	})); err != nil {
		t.Fatal(err)
	}
	c, err := n.Register(transport.Writer())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		c.Send(obj, wreq(types.TS(i)))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if m, err := c.Recv(ctx); err == nil {
		t.Fatalf("unbounded object produced %T, want silence", m.Payload)
	}
	close(block)
}
