// Package core implements the paper's primary contribution: the
// optimally resilient (S = 2t+b+1) SWMR robust storage of Guerraoui &
// Vukolić (PODC 2006) in which every READ and every WRITE completes in
// at most two communication round-trips, for both safe (Figs. 2–4) and
// regular (Figs. 2, 5, 6) semantics, including the §5.1 cached-suffix
// optimization of the regular reader.
//
// The novel mechanism, preserved faithfully here: readers write control
// data (their read timestamps tsr) into the base objects in both read
// rounds, and the writer reads those timestamps back in its first round
// (PW) and embeds the collected matrix (tsrarray) in the tuple it writes
// in its second round (W). Readers use the matrix to detect forged
// candidates: a Byzantine object presenting a tuple whose matrix claims
// some object saw a reader timestamp the reader has not yet issued is in
// conflict with that object (Fig. 4 line 1), and the first read round
// only completes on a conflict-free set of S−t responders.
//
// Readers decide by set membership of reported values (the sets C,
// FirstRW, RW, RPW and RespondedWO of Fig. 4, the per-timestamp
// candidates of Fig. 6), and they test membership with types' Equal on
// the values they hold, never through an encoding. No decision depends
// on map iteration order: the safe reader scans its replies in object
// order, and the regular reader's candidates sharing a timestamp keep
// the order in which they were first reported.
//
// Clients are written against transport.Conn and run unchanged over the
// concurrent in-memory network, the deterministic simulator, and TCP.
//
// Every client operation — a WRITE, a pipelined WRITE's PW phase, a
// Flush, a safe or regular READ, and every operation of the baseline,
// server-centric and lower-bound clients — is an Automaton that owns no
// loop: Start returns its round-1 broadcast and Step absorbs one
// delivered message, returning the next round's broadcast and whether
// the operation is complete. One driver (Client.Run) owns every
// client's only Recv, sends every broadcast, and keeps the OpStats and
// Tracer bookkeeping, so a scheduler other than a transport can step
// the same automata and every client counts rounds the same way.
//
// The driver sends each round as one ascending sweep over objects
// 0..S−1 carrying one message value. The store's client mux depends on
// this: it starts a new hedging/shedding round whenever a destination
// index does not exceed the previous one (TestBroadcastOrder pins it).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// ErrBadConfig reports an invalid storage configuration.
var ErrBadConfig = errors.New("core: invalid configuration")

// OpKind labels an operation for stats and history recording.
type OpKind int

// Operation kinds.
const (
	OpWrite OpKind = iota + 1
	OpRead
)

// String renders the kind.
func (k OpKind) String() string {
	if k == OpWrite {
		return "WRITE"
	}
	return "READ"
}

// OpStats records the complexity of a single completed operation in the
// paper's metrics: communication round-trips, messages sent by the
// client, acknowledgements processed, and wall-clock duration.
type OpStats struct {
	Kind     OpKind
	Rounds   int
	Sent     int
	Acks     int
	Duration time.Duration
	// FastPath reports that a READ decided after its first round: all
	// S−t round-1 replies were equal (types' Equal), timestamp-dominant
	// and conflict-free, so round 2 was skipped (see SetFastPath).
	FastPath bool
}

// FromObject reports whether m was delivered by the base object its
// payload claims as sender, and that object is one of 0..S−1: channels
// are authenticated point-to-point links in the model.
func FromObject(m transport.Message, id types.ObjectID, s int) bool {
	return m.From.Kind == transport.KindObject && types.ObjectID(m.From.Index) == id && int(id) >= 0 && int(id) < s
}

// objSet is a set of object indices.
type objSet map[types.ObjectID]bool

func (s objSet) add(id types.ObjectID) { s[id] = true }

// Client is what every client shares: its configuration, its endpoint,
// the complexity record of its last operation, and its tracer.
type Client struct {
	cfg   quorum.Config
	conn  transport.Conn
	stats OpStats
	trace Tracer
}

// NewClient returns the shared state of a client of cfg on conn. It
// does not validate cfg: the baselines run outside the Byzantine model
// (ABD at S = 2t+1 with b > 0).
func NewClient(cfg quorum.Config, conn transport.Conn) Client {
	return Client{cfg: cfg, conn: conn, trace: nopTracer{}}
}

func newClient(cfg quorum.Config, conn transport.Conn) (Client, error) {
	if err := cfg.Validate(); err != nil {
		return Client{}, errors.Join(ErrBadConfig, err)
	}
	return NewClient(cfg, conn), nil
}

// Cfg returns the client's configuration.
func (c *Client) Cfg() quorum.Config { return c.cfg }

// LastStats returns the complexity record of the last completed
// operation.
func (c *Client) LastStats() OpStats { return c.stats }

// SetTracer installs a tracer (nil restores the no-op).
func (c *Client) SetTracer(t Tracer) {
	if t == nil {
		t = nopTracer{}
	}
	c.trace = t
}

// Automaton is one client operation as a state machine that owns no
// loop: Start returns the round-1 broadcast (nil for none), and Step
// absorbs one delivered message, returning the next round's broadcast
// (nil for none) and whether the operation is complete once that
// broadcast is sent. Automata embed the Op record through which they
// report accepted acknowledgements and protocol events.
type Automaton interface {
	Record() *Op
	Start() wire.Msg
	Step(m transport.Message) (next wire.Msg, done bool)
}

// Op is the bookkeeping of one running operation.
type Op struct {
	st      OpStats
	trace   Tracer
	round   int      // rounds broadcast so far
	TS      types.TS // the decided timestamp, set by the automaton for the tracer
	unacked bool     // the broadcast about to be sent is not awaited (a pipelined W)
}

// Record returns o.
func (o *Op) Record() *Op { return o }

// Ack counts an accepted acknowledgement of round and traces it.
func (o *Op) Ack(round int, from types.ObjectID) {
	o.st.Acks++
	o.trace.AckAccepted(o.st.Kind, round, from)
}

// Run performs one traced, counted operation and records its stats.
func (c *Client) Run(ctx context.Context, kind OpKind, a Automaton) error {
	begin := time.Now()
	o := a.Record()
	o.st, o.trace = OpStats{Kind: kind}, c.trace
	c.trace.OpStart(kind)
	if err := c.drive(ctx, a); err != nil {
		return fmt.Errorf("core: %s round %d: %w", kind, o.round, err)
	}
	o.st.Duration = time.Since(begin)
	c.stats = o.st
	c.trace.Decided(kind, o.TS)
	return nil
}

// drive runs a to completion and is every client's only receive loop.
func (c *Client) drive(ctx context.Context, a Automaton) error {
	o := a.Record()
	next, done := a.Start(), false
	for {
		if next != nil {
			c.broadcast(o, next)
		}
		if done {
			return nil
		}
		m, err := c.conn.Recv(ctx)
		if err != nil {
			return err
		}
		next, done = a.Step(m)
	}
}

// broadcast sends m to objects 0..S−1 in ascending order. The store
// mux relies on that order: a send whose destination index does not
// exceed the previous one starts a new round of its hedging and
// shedding.
func (c *Client) broadcast(o *Op, m wire.Msg) {
	o.round++
	o.trace.RoundStart(o.st.Kind, o.round)
	// A read-repair hint is traced inside the round that carries it.
	if req, ok := m.(wire.ReadReq); ok && req.Repair != nil {
		o.trace.Ext(OpRead, EvRepair, 0, 0, req.Repair.TSVal.TS)
	}
	for i := 0; i < c.cfg.S; i++ {
		c.conn.Send(transport.Object(types.ObjectID(i)), m)
	}
	o.st.Sent += c.cfg.S
	if !o.unacked {
		o.st.Rounds++
	}
}
