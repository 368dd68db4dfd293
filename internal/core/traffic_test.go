package core_test

// Traffic and trace pins for every client op kind, on the deterministic
// simulator with FIFO delivery. TestBroadcastOrder checks the contract
// the store mux relies on (every round is one ascending sweep over
// objects 0..S−1) and that OpStats agree with the recorded traffic;
// TestTraceGolden pins the exact Tracer event sequences.

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/byzantine"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
	"repro/internal/wire"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

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

func (c *recConn) reset() { c.sends, c.recvd = nil, nil }

// opRecord is one completed client operation with its traffic.
type opRecord struct {
	name      string
	pipelined bool // a pipelined WRITE: its W sweep is not awaited
	flush     bool // a Flush: no stats of its own
	stats     core.OpStats
	sends     []sentMsg
	recvd     []transport.Message
	events    []string
}

// trafficWorld is a t=b=1 (S=4) single-reader cluster on simnet.
type trafficWorld struct {
	t      *testing.T
	cfg    quorum.Config
	net    *simnet.Net
	wconn  *recConn
	rconn  *recConn
	writer *core.Writer
	trace  core.TraceRecorder
	ops    []opRecord
	reader interface {
		Read(context.Context) (types.TSVal, error)
		LastStats() core.OpStats
	}
}

// trafficScenario builds a world, then runs its ops.
type trafficScenario struct {
	name    string
	regular bool
	liar    bool                // object 0 is a Byzantine round-1 equivocator
	setup   func(*trafficWorld) // faults and client options
	ops     func(*trafficWorld)
}

func newTrafficWorld(t *testing.T, sc trafficScenario) *trafficWorld {
	t.Helper()
	cfg := quorum.Optimal(1, 1, 1)
	w := &trafficWorld{t: t, cfg: cfg, net: simnet.New(simnet.FIFO())}
	t.Cleanup(func() { w.net.Close() })
	for i := 0; i < cfg.S; i++ {
		id := types.ObjectID(i)
		var h transport.Handler = object.NewSafe(id, cfg.R)
		switch {
		case sc.liar && i == 0 && sc.regular:
			h = byzantine.NewRegularEquivocator(id, cfg.R, 100, types.Value("forged"))
		case sc.liar && i == 0:
			h = byzantine.NewSafeEquivocator(id, cfg.R, 100, types.Value("forged"))
		case sc.regular:
			h = object.NewRegular(id, cfg.R)
		}
		if err := w.net.Serve(transport.Object(id), h); err != nil {
			t.Fatal(err)
		}
	}
	register := func(id transport.NodeID) *recConn {
		c, err := w.net.Register(id)
		if err != nil {
			t.Fatal(err)
		}
		return &recConn{Conn: c}
	}
	w.wconn, w.rconn = register(transport.Writer()), register(transport.Reader(0))
	var err error
	if w.writer, err = core.NewWriter(cfg, w.wconn); err != nil {
		t.Fatal(err)
	}
	w.writer.SetTracer(&w.trace)
	return w
}

func (w *trafficWorld) safeReader(fast bool) {
	r, err := core.NewSafeReader(w.cfg, w.rconn, 0)
	if err != nil {
		w.t.Fatal(err)
	}
	r.SetFastPath(fast)
	r.SetTracer(&w.trace)
	w.reader = r
}

func (w *trafficWorld) regularReader(optimized, fast bool) {
	r, err := core.NewRegularReader(w.cfg, w.rconn, 0, optimized)
	if err != nil {
		w.t.Fatal(err)
	}
	r.SetFastPath(fast)
	r.SetTracer(&w.trace)
	w.reader = r
}

// run drives one client operation to completion under the simulator,
// records it, then lets in-transit traffic settle. between, when set,
// runs after the op returned and before anything else is delivered.
func (w *trafficWorld) run(rec opRecord, conn *recConn, op func(context.Context) error, between func()) {
	w.t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	conn.reset()
	w.trace.Reset()
	task := w.net.Go(func() error { return op(ctx) })
	for !task.Done() && w.net.Step() {
	}
	if !task.Done() {
		w.t.Fatalf("%s stalled", rec.name)
	}
	if err := task.Err(); err != nil {
		w.t.Fatalf("%s: %v", rec.name, err)
	}
	rec.sends, rec.recvd, rec.events = conn.sends, conn.recvd, w.trace.Events()
	w.ops = append(w.ops, rec)
	if between != nil {
		between()
	}
	w.net.Run()
}

// writeOp, readOp and flushOp record the client's LastStats on the
// record run appended.
func (w *trafficWorld) writeOp(v string, pipelined bool, between func()) {
	w.run(opRecord{name: "write " + v, pipelined: pipelined}, w.wconn,
		func(ctx context.Context) error { return w.writer.Write(ctx, types.Value(v)) }, between)
	w.ops[len(w.ops)-1].stats = w.writer.LastStats()
}

func (w *trafficWorld) readOp(name string) {
	w.run(opRecord{name: name}, w.rconn, func(ctx context.Context) error {
		_, err := w.reader.Read(ctx)
		return err
	}, nil)
	w.ops[len(w.ops)-1].stats = w.reader.LastStats()
}

func (w *trafficWorld) flushOp() {
	w.run(opRecord{name: "flush", flush: true}, w.wconn, w.writer.Flush, nil)
	w.ops[len(w.ops)-1].stats = w.writer.LastStats()
}

// dropW discards the in-transit W requests to object 0, so the next
// pipelined PW round certifies that object's copy instead.
func (w *trafficWorld) dropW() {
	w.net.DropMatching(func(p simnet.Pending) bool {
		_, isW := p.Payload.(wire.WReq)
		return isW && p.To == transport.Object(0)
	})
}

// trafficScenarios covers every op kind. Each sweep reaches exactly
// S−t objects that reply (messages to or from the others are never
// delivered, which the asynchronous model allows), so every reply a
// client receives during an op either counts as an acknowledgement of
// that op or answers an earlier op.
func trafficScenarios() []trafficScenario {
	quorumOnly := func(w *trafficWorld) { w.net.Crash(transport.Object(3)) }
	lagging := func(w *trafficWorld) {
		w.net.Block(transport.Writer(), transport.Object(0))  // 0 misses every write
		w.net.Block(transport.Reader(0), transport.Object(3)) // reads use {0,1,2}
	}
	var out []trafficScenario
	for _, regular := range []bool{false, true} {
		kind := "safe"
		reader := func(w *trafficWorld, fast bool) { w.safeReader(fast) }
		if regular {
			kind = "regular"
			reader = func(w *trafficWorld, fast bool) { w.regularReader(false, fast) }
		}
		out = append(out,
			trafficScenario{name: kind + "/slow", regular: regular, setup: quorumOnly, ops: func(w *trafficWorld) {
				reader(w, false)
				w.readOp("read initial")
				w.writeOp("v1", false, nil)
				w.readOp("read v1")
			}},
			trafficScenario{name: kind + "/fast", regular: regular, setup: quorumOnly, ops: func(w *trafficWorld) {
				reader(w, true)
				w.writeOp("v1", false, nil)
				w.readOp("read v1")
				w.writeOp("v2", false, nil)
				w.readOp("read v2")
			}},
			trafficScenario{name: kind + "/repair", regular: regular, setup: lagging, ops: func(w *trafficWorld) {
				reader(w, true)
				w.writeOp("v1", false, nil)
				w.readOp("read v1 (repair)")
				w.readOp("read v1 (repaired)")
			}},
			// The forged round-1 candidate blocks the decision until the
			// liar's honest round-2 reply refutes it.
			trafficScenario{name: kind + "/forged", regular: regular, liar: true, setup: quorumOnly, ops: func(w *trafficWorld) {
				reader(w, true)
				w.writeOp("v1", false, nil)
				w.readOp("read v1")
			}},
			trafficScenario{name: kind + "/pipelined", regular: regular, setup: quorumOnly, ops: func(w *trafficWorld) {
				reader(w, true)
				w.writer.SetPipelined(true)
				w.writeOp("v1", true, nil)
				w.writeOp("v2", true, w.dropW)
				w.writeOp("v3", true, nil)
				w.flushOp()
				w.readOp("read v3")
			}},
		)
	}
	out = append(out, trafficScenario{name: "regular-opt/fast", regular: true, setup: quorumOnly, ops: func(w *trafficWorld) {
		w.regularReader(true, true)
		w.writeOp("v1", false, nil)
		w.readOp("read v1")
		w.readOp("read v1 again")
		w.writer.SetPipelined(true)
		w.writeOp("v2", true, nil)
		w.flushOp()
		w.readOp("read v2")
	}})
	return out
}

func runTrafficScenario(t *testing.T, sc trafficScenario) []opRecord {
	t.Helper()
	w := newTrafficWorld(t, sc)
	sc.setup(w)
	sc.ops(w)
	return w.ops
}

// TestBroadcastOrder: every broadcast a client makes is one ascending
// sweep over objects 0..S−1 carrying one message (the store mux starts
// a new flow round when a destination index does not increase), and
// LastStats agrees with the recorded traffic.
func TestBroadcastOrder(t *testing.T) {
	for _, sc := range trafficScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ops := runTrafficScenario(t, sc)
			cfg := quorum.Optimal(1, 1, 1)
			s := cfg.S
			for i, op := range ops {
				if len(op.sends)%s != 0 {
					t.Fatalf("%s: %d sends, not whole sweeps of %d", op.name, len(op.sends), s)
				}
				sweeps := len(op.sends) / s
				for k := 0; k < sweeps; k++ {
					first := op.sends[k*s].msg
					for d := 0; d < s; d++ {
						m := op.sends[k*s+d]
						if m.to != transport.Object(types.ObjectID(d)) {
							t.Fatalf("%s: sweep %d send %d went to %v, want object %d", op.name, k, d, m.to, d)
						}
						if !reflect.DeepEqual(m.msg, first) {
							t.Fatalf("%s: sweep %d carries different messages", op.name, k)
						}
					}
				}
				owned := ownedReplies(ops, i)
				switch {
				case op.flush:
					if sweeps != 0 {
						t.Errorf("%s: Flush sent %d sweeps, want none", op.name, sweeps)
					}
					if owned != cfg.RoundQuorum() {
						t.Errorf("%s: Flush received %d W acks, want %d", op.name, owned, cfg.RoundQuorum())
					}
					continue
				case op.pipelined:
					if sweeps != 2 || op.stats.Rounds != 1 {
						t.Errorf("%s: %d sweeps, %d rounds; want 2 sweeps, 1 awaited round", op.name, sweeps, op.stats.Rounds)
					}
				default:
					if sweeps != op.stats.Rounds {
						t.Errorf("%s: %d sweeps, but Rounds = %d", op.name, sweeps, op.stats.Rounds)
					}
				}
				if op.stats.Sent != len(op.sends) {
					t.Errorf("%s: Sent = %d, recorded %d", op.name, op.stats.Sent, len(op.sends))
				}
				if op.stats.Acks != owned {
					t.Errorf("%s: Acks = %d, received %d replies to this op", op.name, op.stats.Acks, owned)
				}
			}
		})
	}
}

// ownedReplies counts the replies ops[i] received that answer one of
// its own requests or, for a pipelined WRITE or a Flush, the W sweep of
// the pipelined WRITE before it, whose acks it collects.
func ownedReplies(ops []opRecord, i int) int {
	op := ops[i]
	tsrs := map[types.ReaderTS]bool{}
	pws, ws := map[types.TS]bool{}, map[types.TS]bool{}
	collect := func(sends []sentMsg) {
		for _, m := range sends {
			switch req := m.msg.(type) {
			case wire.ReadReq:
				tsrs[req.TSR] = true
			case wire.PWReq:
				pws[req.TS] = true
			case wire.WReq:
				ws[req.TS] = true
			}
		}
	}
	collect(op.sends)
	if op.pipelined || op.flush {
		for j := i - 1; j >= 0; j-- {
			if ops[j].pipelined {
				collect(ops[j].sends)
				break
			}
		}
	}
	n := 0
	for _, m := range op.recvd {
		switch ack := m.Payload.(type) {
		case wire.ReadAck:
			if tsrs[ack.TSR] {
				n++
			}
		case wire.ReadAckHist:
			if tsrs[ack.TSR] {
				n++
			}
		case wire.PWAck:
			if pws[ack.TS] {
				n++
			}
		case wire.WAck:
			if ws[ack.TS] {
				n++
			}
		}
	}
	return n
}

// TestTraceGolden pins the Tracer event sequence and the OpStats of
// every op kind; run with -update to rewrite testdata/trace.golden.
func TestTraceGolden(t *testing.T) {
	var b strings.Builder
	for _, sc := range trafficScenarios() {
		fmt.Fprintf(&b, "== %s\n", sc.name)
		for _, op := range runTrafficScenario(t, sc) {
			st := op.stats
			if op.flush {
				fmt.Fprintf(&b, "-- %s\n", op.name)
			} else {
				fmt.Fprintf(&b, "-- %s: rounds=%d sent=%d acks=%d fast=%v\n", op.name, st.Rounds, st.Sent, st.Acks, st.FastPath)
			}
			for _, e := range op.events {
				fmt.Fprintf(&b, "%s\n", e)
			}
		}
	}
	path := filepath.Join("testdata", "trace.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("trace differs from %s (rerun with -update to inspect):\n%s", path, lineDiff(string(want), got))
	}
}

// lineDiff renders the first differing line of two texts.
func lineDiff(want, got string) string {
	wl, gl := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) || i < len(gl); i++ {
		var w, g string
		if i < len(wl) {
			w = wl[i]
		}
		if i < len(gl) {
			g = gl[i]
		}
		if w != g {
			return fmt.Sprintf("line %d:\n want %q\n  got %q", i+1, w, g)
		}
	}
	return "(equal)"
}
