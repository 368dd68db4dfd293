package harness

import (
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// recConn records every message a client sends and receives.
type recConn struct {
	transport.Conn
	sends []sentMsg
	recvd []transport.Message
}

type sentMsg struct {
	to  transport.NodeID
	msg wire.Msg
}

func (c *recConn) Send(to transport.NodeID, m wire.Msg) {
	c.sends = append(c.sends, sentMsg{to, m})
	c.Conn.Send(to, m)
}

func (c *recConn) Recv(ctx context.Context) (transport.Message, error) {
	m, err := c.Conn.Recv(ctx)
	if err == nil {
		c.recvd = append(c.recvd, m)
	}
	return m, err
}

// TestBroadcastOrder holds every comparison client to the contract of
// the paper's own clients: each round is one ascending sweep over
// objects 0..S−1 carrying one message, Rounds counts the sweeps, Sent
// and Acks agree with the recorded traffic, and Duration is measured.
// t = b = 1 and the last object is crashed, so every round awaits
// exactly the live objects and no reply outlives its operation.
func TestBroadcastOrder(t *testing.T) {
	keys, err := baseline.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Protocol{ABD, ABDAtomic, MultiRound, Auth, FastSafe, ServerCentric} {
		t.Run(string(p), func(t *testing.T) {
			s := objectCount(p, 1, 1)
			cfg := quorum.Config{S: s, T: 1, B: 1, R: 1}
			cl := &Cluster{Net: memnet.New()}
			t.Cleanup(cl.Close)
			for i := 0; i < s; i++ {
				id := types.ObjectID(i)
				if h := honestHandler(p, id, cfg, false, cl); h != nil {
					if err := cl.Net.Serve(transport.Object(id), h); err != nil {
						t.Fatal(err)
					}
				}
			}
			cl.Net.Crash(transport.Object(types.ObjectID(s - 1)))
			register := func(id transport.NodeID) *recConn {
				conn, err := cl.Net.Register(id)
				if err != nil {
					t.Fatal(err)
				}
				return &recConn{Conn: conn}
			}
			wconn, rconn := register(transport.Writer()), register(transport.Reader(0))
			w, err := buildWriter(p, cfg, keys, wconn)
			if err != nil {
				t.Fatal(err)
			}
			r, err := buildReader(p, cfg, keys, rconn, 0)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			check := func(name string, conn *recConn, op func() error, stats func() core.OpStats) {
				t.Helper()
				conn.sends, conn.recvd = nil, nil
				if err := op(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkTraffic(t, name, s, conn, stats())
			}
			for _, v := range []string{"v1", "v2"} {
				check("write "+v, wconn, func() error { return w.Write(ctx, types.Value(v)) }, w.LastStats)
				check("read "+v, rconn, func() error { _, err := r.Read(ctx); return err }, r.LastStats)
			}
			check("read v2 again", rconn, func() error { _, err := r.Read(ctx); return err }, r.LastStats)
		})
	}
}

// checkTraffic asserts the broadcast and OpStats contract for one
// operation's recorded traffic over s objects.
func checkTraffic(t *testing.T, name string, s int, conn *recConn, st core.OpStats) {
	t.Helper()
	if len(conn.sends)%s != 0 {
		t.Fatalf("%s: %d sends, not whole sweeps of %d", name, len(conn.sends), s)
	}
	sweeps := len(conn.sends) / s
	for k := 0; k < sweeps; k++ {
		first := conn.sends[k*s].msg
		for d := 0; d < s; d++ {
			m := conn.sends[k*s+d]
			if m.to != transport.Object(types.ObjectID(d)) {
				t.Fatalf("%s: sweep %d send %d went to %v, want object %d", name, k, d, m.to, d)
			}
			if !reflect.DeepEqual(m.msg, first) {
				t.Fatalf("%s: sweep %d carries different messages", name, k)
			}
		}
	}
	if sweeps != st.Rounds {
		t.Errorf("%s: %d sweeps, but Rounds = %d", name, sweeps, st.Rounds)
	}
	if st.Sent != len(conn.sends) {
		t.Errorf("%s: Sent = %d, recorded %d", name, st.Sent, len(conn.sends))
	}
	if owned := ownedReplies(conn); st.Acks != owned {
		t.Errorf("%s: Acks = %d, received %d replies to this op", name, st.Acks, owned)
	}
	if st.Duration <= 0 {
		t.Errorf("%s: Duration = %v", name, st.Duration)
	}
}

// ownedReplies counts the replies conn received that answer one of the
// requests it sent.
func ownedReplies(conn *recConn) int {
	attempts, seqs := map[int]bool{}, map[int64]bool{}
	writes, pws, ws := map[types.TS]bool{}, map[types.TS]bool{}, map[types.TS]bool{}
	for _, m := range conn.sends {
		switch req := m.msg.(type) {
		case wire.BaselineReadReq:
			attempts[req.Attempt] = true
		case wire.SubscribeReq:
			seqs[req.Seq] = true
		case wire.BaselineWriteReq:
			writes[req.TS] = true
		case wire.PWReq:
			pws[req.TS] = true
		case wire.WReq:
			ws[req.TS] = true
		}
	}
	n := 0
	for _, m := range conn.recvd {
		var owned bool
		switch ack := m.Payload.(type) {
		case wire.BaselineReadAck:
			owned = attempts[ack.Attempt]
		case wire.PairsReadAck:
			owned = attempts[ack.Attempt]
		case wire.PushState:
			owned = seqs[ack.Seq]
		case wire.BaselineWriteAck:
			owned = writes[ack.TS]
		case wire.PWAck:
			owned = pws[ack.TS]
		case wire.WAck:
			owned = ws[ack.TS]
		}
		if owned {
			n++
		}
	}
	return n
}
