// Package servercentric implements the §6 extension of the model: base
// objects become first-class servers that exchange messages with each
// other and push unsolicited messages to clients. The notion of a
// round-trip dissolves — a reader sends a single subscribe message and
// then only receives.
//
// The storage built here is the natural push protocol the section
// sketches: the writer stores a timestamped pair at S−t servers in one
// round (baseline's one-round writer); servers echo every adopted pair
// to their peers, so all correct servers converge on the latest write;
// a reader subscribes once and absorbs pushed states until the
// refute-or-support rule of the multi-round reader
// (baseline.Reports.Decide) finds a pair that b+1 distinct servers
// vouch for and nothing higher survives (Byzantine servers cannot
// fabricate that support). Both clients are automata on the one driver
// of internal/core, so E9 counts their rounds, messages and
// acknowledgements as it counts the data-centric clients'; the only
// receive loop here is the Server's. The Proposition 1 lower bound
// migrates to this model for *fast* (one round-trip) reads — the paper
// notes a tight algorithm needs a different metric and leaves it open;
// this package provides the executable model and the E9 measurements.
package servercentric

import (
	"context"
	"sync"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Server is one first-class storage server. It runs its own receive
// loop over an active transport endpoint: adopt writes, echo to peers,
// push state to subscribed readers.
type Server struct {
	id   types.ObjectID
	cfg  quorum.Config
	conn transport.Conn

	mu     sync.Mutex
	ts     types.TS
	val    types.Value
	subs   map[transport.NodeID]int64 // subscriber → subscription seq
	pushes int

	cancel context.CancelFunc
	done   chan struct{}
}

// NewServer returns server id over conn.
func NewServer(id types.ObjectID, cfg quorum.Config, conn transport.Conn) *Server {
	return &Server{
		id:   id,
		cfg:  cfg,
		conn: conn,
		subs: make(map[transport.NodeID]int64),
		done: make(chan struct{}),
	}
}

// Start launches the server's receive loop; Stop cancels it.
func (s *Server) Start() {
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() {
		defer close(s.done)
		for {
			msg, err := s.conn.Recv(ctx)
			if err != nil {
				return
			}
			s.handle(msg)
		}
	}()
}

// Stop terminates the receive loop and waits for it to exit.
func (s *Server) Stop() {
	if s.cancel != nil {
		s.cancel()
	}
	s.conn.Close()
	<-s.done
}

// Pushes returns how many state pushes this server has sent (E9 metric).
func (s *Server) Pushes() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pushes
}

func (s *Server) handle(msg transport.Message) {
	switch m := msg.Payload.(type) {
	case wire.BaselineWriteReq:
		s.adopt(m.TS, m.Val, true)
		s.conn.Send(msg.From, wire.BaselineWriteAck{ObjectID: s.id, TS: m.TS})
	case wire.PushState:
		// Peer echo: adopt without re-echoing (one echo hop suffices for
		// convergence: every correct server echoes what it adopts from
		// the writer, and every correct server receives every echo).
		s.adopt(m.TS, m.Val, false)
	case wire.SubscribeReq:
		s.mu.Lock()
		s.subs[msg.From] = m.Seq
		ts, val := s.ts, s.val.Clone()
		s.pushes++
		s.mu.Unlock()
		s.conn.Send(msg.From, wire.PushState{ObjectID: s.id, Seq: m.Seq, TS: ts, Val: val})
	}
}

// adopt installs a newer pair and notifies peers (echo) and subscribers
// (push).
func (s *Server) adopt(ts types.TS, val types.Value, echo bool) {
	s.mu.Lock()
	if ts <= s.ts {
		s.mu.Unlock()
		return
	}
	s.ts = ts
	s.val = val.Clone()
	subs := make(map[transport.NodeID]int64, len(s.subs))
	for n, seq := range s.subs {
		subs[n] = seq
	}
	s.pushes += len(subs)
	s.mu.Unlock()

	if echo {
		for i := 0; i < s.cfg.S; i++ {
			if types.ObjectID(i) == s.id {
				continue
			}
			s.conn.Send(transport.Object(types.ObjectID(i)), wire.PushState{
				ObjectID: s.id, TS: ts, Val: val.Clone(), Echo: true,
			})
		}
	}
	for n, seq := range subs {
		s.conn.Send(n, wire.PushState{ObjectID: s.id, Seq: seq, TS: ts, Val: val.Clone()})
	}
}

// NewWriter returns the push-model writer: baseline's one-round writer,
// which stores each pair at S−t servers (the echo propagation to the
// rest happens server-side, off the writer's critical path).
func NewWriter(cfg quorum.Config, conn transport.Conn) (*baseline.Writer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return baseline.NewWriter(cfg, conn), nil
}

// Reader reads with a single subscribe message and pushed replies: the
// fastest possible operation shape in the server-centric model (§6).
type Reader struct {
	core.Client
	seq int64
}

// NewReader returns the push-model reader.
func NewReader(cfg quorum.Config, conn transport.Conn) (*Reader, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Reader{Client: core.NewClient(cfg, conn)}, nil
}

// Read subscribes once and absorbs pushes until S−t distinct servers
// have pushed and baseline.Reports.Decide, the refute-or-support rule
// of the multi-round reader, decides on the pushed pairs. Echo
// convergence guarantees termination: every correct server eventually
// pushes the latest adopted pair. The rule can never return a pair
// older than the last completed write, and Byzantine fabrications above
// it can only delay the decision, not mislead it.
func (r *Reader) Read(ctx context.Context) (types.TSVal, error) {
	a := &readOp{r: r, reps: baseline.NewReports(r.Cfg().S)}
	if err := r.Run(ctx, core.OpRead, a); err != nil {
		return types.TSVal{}, err
	}
	return a.ret, nil
}

// readOp is one READ: a single subscribe round, then pushes.
type readOp struct {
	core.Op
	r    *Reader
	reps *baseline.Reports
	ret  types.TSVal
}

func (a *readOp) Start() wire.Msg {
	a.r.seq++
	return wire.SubscribeReq{Seq: a.r.seq}
}

func (a *readOp) Step(m transport.Message) (wire.Msg, bool) {
	push, ok := m.Payload.(wire.PushState)
	if !ok || push.Seq != a.r.seq || !core.FromObject(m, push.ObjectID, a.r.Cfg().S) {
		return nil, false
	}
	a.Ack(1, push.ObjectID)
	pair := types.TSVal{TS: push.TS, Val: push.Val.Clone()}
	a.reps.Put(push.ObjectID, pair, pair)
	if a.reps.Len() < a.r.Cfg().RoundQuorum() {
		return nil, false
	}
	a.ret, ok = a.reps.Decide(a.r.Cfg())
	a.TS = a.ret.TS
	return nil, ok
}
