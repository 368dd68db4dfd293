// Package simnet implements transport.Network as a deterministic,
// single-stepped simulator. At most one entity runs at a time: the
// driver delivers one message per step, waits until every client
// goroutine is back to blocking in Recv (or finished), and only then
// picks the next message. Which message is delivered next is decided by
// a pluggable Policy — FIFO by default, seeded-random for property
// tests, or a hand-written adversary such as the Proposition 1 run
// scheduler.
//
// Messages never expire: an undelivered message simply stays "in
// transit", exactly the asynchrony the paper's proofs exploit. Links
// can be blocked (messages accumulate as undeliverable), and nodes can
// be crashed (their messages are discarded).
package simnet

import (
	"context"
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Pending describes one in-transit message, exposed to delivery
// policies.
type Pending struct {
	Seq     int64
	From    transport.NodeID
	To      transport.NodeID
	Payload wire.Msg
}

// Policy picks which deliverable message to deliver next, as an index
// into the (non-empty) slice. Policies see messages in send order.
type Policy func(deliverable []Pending) int

// FIFO delivers messages in send order.
func FIFO() Policy { return func([]Pending) int { return 0 } }

// Seeded delivers messages in a pseudo-random but reproducible order.
func Seeded(seed int64) Policy {
	rng := rand.New(rand.NewSource(seed))
	return func(d []Pending) int { return rng.Intn(len(d)) }
}

// Net is the deterministic simulator. Construct with New, install
// objects with Serve, register clients with Register, start client
// operations with Go, and advance the world with Step or Run.
type Net struct {
	mu      sync.Mutex
	cond    *sync.Cond
	seq     int64
	policy  Policy
	conns   map[transport.NodeID]*conn
	objects map[transport.NodeID]transport.Handler
	blocked map[linkKey]bool
	crashed map[transport.NodeID]bool
	taps    []transport.Tap

	inflight []Pending
	running  int // client goroutines currently runnable
	closed   bool
}

type linkKey struct{ from, to transport.NodeID }

// New returns a simulator using the given policy (nil means FIFO).
func New(policy Policy) *Net {
	if policy == nil {
		policy = FIFO()
	}
	n := &Net{
		policy:  policy,
		conns:   make(map[transport.NodeID]*conn),
		objects: make(map[transport.NodeID]transport.Handler),
		blocked: make(map[linkKey]bool),
		crashed: make(map[transport.NodeID]bool),
	}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// SetPolicy swaps the delivery policy mid-run (adversaries change phase).
func (n *Net) SetPolicy(p Policy) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p == nil {
		p = FIFO()
	}
	n.policy = p
}

// Register creates the endpoint of an active node.
func (n *Net) Register(id transport.NodeID) (transport.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if _, dup := n.conns[id]; dup {
		return nil, fmt.Errorf("simnet: %v already registered", id)
	}
	c := &conn{net: n, id: id}
	n.conns[id] = c
	return c, nil
}

// Serve installs a base object's handler.
func (n *Net) Serve(id transport.NodeID, h transport.Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return transport.ErrClosed
	}
	if _, dup := n.objects[id]; dup {
		return fmt.Errorf("simnet: %v already served", id)
	}
	n.objects[id] = h
	return nil
}

// AddTap registers a message observer (invoked at send time).
func (n *Net) AddTap(t transport.Tap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.taps = append(n.taps, t)
}

// Block holds all messages on the directed link from→to in transit.
func (n *Net) Block(from, to transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.blocked[linkKey{from, to}] = true
}

// Unblock re-opens a link.
func (n *Net) Unblock(from, to transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.blocked, linkKey{from, to})
}

// BlockNode blocks both directions between id and every other node.
func (n *Net) BlockNode(id transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	for other := range n.conns {
		n.blocked[linkKey{id, other}] = true
		n.blocked[linkKey{other, id}] = true
	}
	for other := range n.objects {
		n.blocked[linkKey{id, other}] = true
		n.blocked[linkKey{other, id}] = true
	}
}

// Crash discards all current and future messages to and from id.
func (n *Net) Crash(id transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.crashed[id] = true
	kept := n.inflight[:0]
	for _, p := range n.inflight {
		if p.To != id && p.From != id {
			kept = append(kept, p)
		}
	}
	n.inflight = kept
}

// DropMatching discards in-transit messages satisfying pred and returns
// how many were dropped.
func (n *Net) DropMatching(pred func(Pending) bool) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	kept := n.inflight[:0]
	dropped := 0
	for _, p := range n.inflight {
		if pred(p) {
			dropped++
			continue
		}
		kept = append(kept, p)
	}
	n.inflight = kept
	return dropped
}

// InTransit returns a snapshot of undelivered messages.
func (n *Net) InTransit() []Pending {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]Pending, len(n.inflight))
	copy(out, n.inflight)
	return out
}

// Close shuts the simulator down; blocked clients get ErrClosed.
func (n *Net) Close() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.closed = true
	n.cond.Broadcast()
	return nil
}

// Task tracks a client operation started with Go.
type Task struct {
	net  *Net
	done bool
	err  error
}

// Done reports whether the operation has returned.
func (t *Task) Done() bool {
	t.net.mu.Lock()
	defer t.net.mu.Unlock()
	return t.done
}

// Err returns the operation's error once done.
func (t *Task) Err() error {
	t.net.mu.Lock()
	defer t.net.mu.Unlock()
	return t.err
}

// Go starts a client operation under the simulator's control. The
// function runs in its own goroutine but the simulator only delivers
// messages while every such goroutine is blocked in Recv, keeping the
// execution deterministic.
func (n *Net) Go(fn func() error) *Task {
	t := &Task{net: n}
	n.mu.Lock()
	n.running++
	n.mu.Unlock()
	go func() {
		err := fn()
		n.mu.Lock()
		t.done = true
		t.err = err
		n.running--
		n.cond.Broadcast()
		n.mu.Unlock()
	}()
	return t
}

// Step waits for the world to quiesce (no client runnable), delivers
// one message chosen by the policy, and waits for quiescence again.
// It returns false when no message is deliverable — either everything
// is done or the remaining messages are blocked/crashed.
func (n *Net) Step() bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.waitQuiescentLocked()
	if n.closed {
		return false
	}

	idx := n.pickLocked()
	if idx < 0 {
		return false
	}
	p := n.deliverable()[idx]
	// Remove from inflight by sequence number.
	for i := range n.inflight {
		if n.inflight[i].Seq == p.Seq {
			n.inflight = append(n.inflight[:i], n.inflight[i+1:]...)
			break
		}
	}

	if h, isObj := n.objects[p.To]; isObj {
		// Objects are passive: invoke the handler inline (no client is
		// runnable here, so the handler runs exclusively).
		n.mu.Unlock()
		reply, ok := h.Handle(p.From, wire.Clone(p.Payload))
		n.mu.Lock()
		if ok && !n.closed {
			n.enqueueLocked(p.To, p.From, reply)
		}
		return true
	}
	if c := n.conns[p.To]; c != nil {
		c.queue = append(c.queue, transport.Message{From: p.From, Payload: wire.Clone(p.Payload)})
		n.cond.Broadcast()
		n.waitQuiescentLocked()
		return true
	}
	// Unknown destination: message vanishes (forever in transit).
	return true
}

// Run steps until quiescent and returns the number of deliveries.
func (n *Net) Run() int {
	steps := 0
	for n.Step() {
		steps++
	}
	return steps
}

// waitQuiescentLocked blocks until no client goroutine is runnable and
// every conn inbox has been drained by its owner.
func (n *Net) waitQuiescentLocked() {
	for !n.closed {
		if n.running > 0 {
			n.cond.Wait()
			continue
		}
		busyInbox := false
		for _, c := range n.conns {
			if len(c.queue) > 0 && c.waiting {
				busyInbox = true
				break
			}
		}
		if busyInbox {
			n.cond.Wait()
			continue
		}
		return
	}
}

// deliverable returns in-transit messages not blocked or crashed, in
// send order.
func (n *Net) deliverable() []Pending {
	var out []Pending
	for _, p := range n.inflight {
		if n.blocked[linkKey{p.From, p.To}] || n.crashed[p.To] || n.crashed[p.From] {
			continue
		}
		out = append(out, p)
	}
	return out
}

func (n *Net) pickLocked() int {
	d := n.deliverable()
	if len(d) == 0 {
		return -1
	}
	idx := n.policy(d)
	if idx < 0 || idx >= len(d) {
		idx = 0
	}
	return idx
}

func (n *Net) enqueueLocked(from, to transport.NodeID, payload wire.Msg) {
	if n.crashed[from] || n.crashed[to] {
		return
	}
	for _, t := range n.taps {
		t.OnMessage(from, to, payload)
	}
	n.seq++
	n.inflight = append(n.inflight, Pending{Seq: n.seq, From: from, To: to, Payload: payload})
}

// conn is a client endpoint under simulator control.
type conn struct {
	net     *Net
	id      transport.NodeID
	queue   []transport.Message
	waiting bool
	closed  bool
}

// ID returns the owning node's ID.
func (c *conn) ID() transport.NodeID { return c.id }

// Send enqueues payload as in-transit; Step makes the hop's one copy.
func (c *conn) Send(to transport.NodeID, payload wire.Msg) {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	if c.net.closed || c.closed {
		return
	}
	c.net.enqueueLocked(c.id, to, payload)
}

// Recv blocks until the simulator delivers a message to this client.
// The client goroutine counts as idle while blocked here, which is what
// lets the simulator progress.
func (c *conn) Recv(ctx context.Context) (transport.Message, error) {
	n := c.net
	n.mu.Lock()
	defer n.mu.Unlock()
	for {
		if len(c.queue) > 0 {
			m := c.queue[0]
			c.queue = c.queue[1:]
			return m, nil
		}
		if c.closed || n.closed {
			return transport.Message{}, transport.ErrClosed
		}
		if err := ctx.Err(); err != nil {
			return transport.Message{}, err
		}
		c.waiting = true
		n.running--
		n.cond.Broadcast()
		n.cond.Wait()
		n.running++
		c.waiting = false
	}
}

// Close releases the endpoint; a blocked Recv returns ErrClosed.
func (c *conn) Close() error {
	c.net.mu.Lock()
	defer c.net.mu.Unlock()
	c.closed = true
	c.net.cond.Broadcast()
	return nil
}
