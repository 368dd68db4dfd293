package tcpnet

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

// TestAdmissionBusyPushback: a served object at its admission budget
// answers a wire.Busy naming the request on the wire instead of queueing the
// request behind the ones in service.
func TestAdmissionBusyPushback(t *testing.T) {
	n := New()
	defer n.Close()
	ctrs := &flow.Counters{}
	n.SetFlow(flow.Options{ObjectBudget: 1, LinkBudget: 64}, ctrs)

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

	holder, err := n.Register(transport.Writer())
	if err != nil {
		t.Fatal(err)
	}
	bounced, err := n.Register(transport.Reader(0))
	if err != nil {
		t.Fatal(err)
	}

	holder.Send(obj, wreq(1))
	<-entered // the only admission credit is now held
	bounced.Send(obj, wreq(2))

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	m, err := bounced.Recv(ctx)
	if err != nil {
		t.Fatal(err)
	}
	busy, ok := m.Payload.(wire.Busy)
	if !ok {
		t.Fatalf("reply = %T, want Busy pushback", m.Payload)
	}
	if len(busy.Ops) != 1 || busy.Ops[0] != (wire.OpRef{Reg: "r", Op: 2}) {
		t.Fatalf("Busy names %+v, want the rejected request 2", busy.Ops)
	}
	if m.From != obj {
		t.Fatalf("Busy from %v, want %v", m.From, obj)
	}

	close(release)
	if m, err := holder.Recv(ctx); err != nil || m.Payload.(wire.WAck).TS != 1 {
		t.Fatalf("admitted request not served: %v %v", m, err)
	}
	// The freed credit admits the retry.
	bounced.Send(obj, wreq(3))
	<-entered
	if m, err := bounced.Recv(ctx); err != nil || m.Payload.(wire.WAck).TS != 3 {
		t.Fatalf("retry after pushback not served: %v %v", m, err)
	}
	if hw := ctrs.Snapshot().ObjectHighWater; hw > 1 {
		t.Fatalf("admission high water %d exceeds budget 1", hw)
	}
}
