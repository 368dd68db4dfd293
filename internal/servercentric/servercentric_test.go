package servercentric_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/quorum"
	"repro/internal/servercentric"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/types"
	"repro/internal/wire"
)

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return c
}

// world wires S servers (some possibly Byzantine pushers) plus clients.
type world struct {
	cfg     quorum.Config
	net     *memnet.Net
	servers []*servercentric.Server
}

func newWorld(t *testing.T, tt, b int, crash []int, byzForge []int) *world {
	t.Helper()
	cfg := quorum.Optimal(tt, b, 1)
	w := &world{cfg: cfg, net: memnet.New()}
	for i := 0; i < cfg.S; i++ {
		id := types.ObjectID(i)
		conn, err := w.net.Register(transport.Object(id))
		if err != nil {
			t.Fatal(err)
		}
		if contains(byzForge, i) {
			srv := newForger(id, cfg, conn)
			t.Cleanup(srv.Stop)
			srv.Start()
			continue
		}
		srv := servercentric.NewServer(id, cfg, conn)
		w.servers = append(w.servers, srv)
		srv.Start()
		t.Cleanup(srv.Stop)
	}
	for _, i := range crash {
		w.net.Crash(transport.Object(types.ObjectID(i)))
	}
	t.Cleanup(func() { w.net.Close() })
	return w
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// forger is a Byzantine server pushing fabricated high pairs.
type forger struct {
	id   types.ObjectID
	cfg  quorum.Config
	conn transport.Conn
	stop context.CancelFunc
	done chan struct{}
}

func newForger(id types.ObjectID, cfg quorum.Config, conn transport.Conn) *forger {
	return &forger{id: id, cfg: cfg, conn: conn, done: make(chan struct{})}
}

func (f *forger) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	go func() {
		defer close(f.done)
		for {
			msg, err := f.conn.Recv(ctx)
			if err != nil {
				return
			}
			switch m := msg.Payload.(type) {
			case wire.BaselineWriteReq:
				f.conn.Send(msg.From, wire.BaselineWriteAck{ObjectID: f.id, TS: m.TS})
			case wire.SubscribeReq:
				f.conn.Send(msg.From, wire.PushState{
					ObjectID: f.id, Seq: m.Seq, TS: 1 << 30, Val: types.Value("forged"),
				})
			}
		}
	}()
}

func (f *forger) Stop() {
	if f.stop != nil {
		f.stop()
	}
	f.conn.Close()
	<-f.done
}

func (w *world) writer(t *testing.T) *baseline.Writer {
	t.Helper()
	conn, err := w.net.Register(transport.Writer())
	if err != nil {
		t.Fatal(err)
	}
	wr, err := servercentric.NewWriter(w.cfg, conn)
	if err != nil {
		t.Fatal(err)
	}
	return wr
}

func (w *world) reader(t *testing.T, j int) *servercentric.Reader {
	t.Helper()
	conn, err := w.net.Register(transport.Reader(types.ReaderID(j)))
	if err != nil {
		t.Fatal(err)
	}
	r, err := servercentric.NewReader(w.cfg, conn)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestPushReadFresh(t *testing.T) {
	w := newWorld(t, 1, 1, nil, nil)
	r := w.reader(t, 0)
	got, err := r.Read(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Val.IsBottom() {
		t.Fatalf("fresh read = %v, want ⊥", got)
	}
}

func TestPushWriteThenRead(t *testing.T) {
	w := newWorld(t, 2, 1, nil, nil)
	wr := w.writer(t)
	r := w.reader(t, 0)
	for i := 1; i <= 4; i++ {
		val := types.Value(fmt.Sprintf("v%d", i))
		if err := wr.Write(ctx(t), val); err != nil {
			t.Fatal(err)
		}
		got, err := r.Read(ctx(t))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Val.Equal(val) {
			t.Fatalf("read %d = %v, want %q", i, got, val)
		}
	}
	if got := wr.LastStats().Rounds; got != 1 {
		t.Errorf("push-model write rounds = %d, want 1", got)
	}
	if got := r.LastStats().Sent; got != w.cfg.S {
		t.Errorf("read sent %d messages, want %d (single subscribe broadcast)", got, w.cfg.S)
	}
}

func TestPushReadWithCrashes(t *testing.T) {
	w := newWorld(t, 2, 1, []int{0, 3}, nil)
	wr := w.writer(t)
	r := w.reader(t, 0)
	if err := wr.Write(ctx(t), types.Value("x")); err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Val.Equal(types.Value("x")) {
		t.Fatalf("read = %v", got)
	}
}

func TestPushReadRejectsForgery(t *testing.T) {
	// b Byzantine servers push fabricated high pairs: the refute rule
	// must discard them once all correct servers answer below.
	w := newWorld(t, 2, 2, nil, []int{1, 4})
	wr := w.writer(t)
	r := w.reader(t, 0)
	for i := 1; i <= 3; i++ {
		val := types.Value(fmt.Sprintf("v%d", i))
		if err := wr.Write(ctx(t), val); err != nil {
			t.Fatal(err)
		}
		got, err := r.Read(ctx(t))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Val.Equal(val) {
			t.Fatalf("read %d = %v, want %q (forgery accepted!)", i, got, val)
		}
	}
}

func TestPushEchoConvergence(t *testing.T) {
	// The write quorum is S−t; servers outside it learn the value via
	// peer echo. Crash the writer's links... simplest check: after a
	// write, eventually every correct server pushes the latest value.
	w := newWorld(t, 2, 1, nil, nil)
	wr := w.writer(t)
	if err := wr.Write(ctx(t), types.Value("converge")); err != nil {
		t.Fatal(err)
	}
	r := w.reader(t, 0)
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := r.Read(ctx(t))
		if err != nil {
			t.Fatal(err)
		}
		if got.Val.Equal(types.Value("converge")) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("servers did not converge; last read %v", got)
		}
	}
}

// TestWriteIgnoresForgedAcks: acknowledgements count only from the
// server that sent them. Servers 0–2 are silent and the Byzantine
// server 3 acknowledges the WRITE once in each of their names, so no
// S−t genuine acknowledgements ever arrive and the WRITE must not
// complete.
func TestWriteIgnoresForgedAcks(t *testing.T) {
	w := &world{cfg: quorum.Optimal(1, 1, 1), net: memnet.New()}
	t.Cleanup(func() { w.net.Close() })
	byz, err := w.net.Register(transport.Object(3))
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		msg, err := byz.Recv(context.Background())
		if err != nil {
			return
		}
		req := msg.Payload.(wire.BaselineWriteReq)
		for i := 0; i < 3; i++ {
			byz.Send(msg.From, wire.BaselineWriteAck{ObjectID: types.ObjectID(i), TS: req.TS})
		}
	}()
	wr := w.writer(t)
	c, cancel := context.WithTimeout(ctx(t), 200*time.Millisecond)
	defer cancel()
	if err := wr.Write(c, types.Value("v")); err == nil {
		t.Fatalf("WRITE completed on %d acknowledgements forged in other servers' names", wr.LastStats().Acks)
	}
}
