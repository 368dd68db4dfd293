// Package memnet implements transport.Network as a concurrent in-memory
// message-passing network with asynchronous, reliable point-to-point
// links. It is the default substrate for tests and benchmarks.
//
// Faithful to the model of §2, links never duplicate or corrupt
// messages, but delivery is asynchronous: tests exercise asynchrony with
// per-link controls — Block/Unblock hold messages "in transit"
// indefinitely, Drop discards them (a message that stays in transit
// forever is indistinguishable from a dropped one to the protocols), a
// delay function adds latency, and Crash silences a base object
// mid-run. Byzantine behaviour needs no network support: a malicious
// base object is simply an arbitrary Handler.
package memnet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/batch"
	"repro/internal/transport/flow"
	"repro/internal/wire"
)

// Net is a concurrent in-memory network. The zero value is not usable;
// call New.
type Net struct {
	mu       sync.Mutex
	conns    map[transport.NodeID]*conn
	objects  map[transport.NodeID]*objectServer
	gates    map[linkKey]*gate
	crashed  map[transport.NodeID]bool
	taps     []transport.Tap
	delayFn  func(from, to transport.NodeID) time.Duration
	batching *batch.Options
	flow     *flow.Options
	flowCtrs *flow.Counters
	trace    *obs.Tracer
	trShard  int
	closed   bool
	delivery sync.WaitGroup // tracks delayed deliveries
}

type linkKey struct{ from, to transport.NodeID }

// gate holds messages for a blocked link, in order.
type gate struct {
	blocked bool
	dropN   int // drop the next dropN messages
	queue   []pending
}

type pending struct {
	from, to transport.NodeID
	payload  wire.Msg
}

// New returns an empty network.
func New() *Net {
	return &Net{
		conns:   make(map[transport.NodeID]*conn),
		objects: make(map[transport.NodeID]*objectServer),
		gates:   make(map[linkKey]*gate),
		crashed: make(map[transport.NodeID]bool),
	}
}

// EnableBatching makes the network coalesce concurrent client→object
// traffic into wire.Batch frames (see internal/transport/batch): conns
// created by subsequent Register calls gain a batching send path, and
// handlers installed by subsequent Serve calls unpack batch frames. Call
// it before registering endpoints.
func (n *Net) EnableBatching(opts batch.Options) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.batching = &opts
}

// SetFlow bounds the queues of subsequently created endpoints per opts
// (see internal/transport/flow): base-object request queues cap at
// ObjectBudget in total and at LinkBudget per sender, answering a
// wire.Busy notice beyond either. Client inboxes
// are instrumented (depth reported into ctrs) but not enforced: a
// protocol reply cannot be re-elicited once shed — objects deliberately
// do not re-acknowledge duplicate requests (Figs. 3/5) — so reply
// queues are bounded by ADMISSION upstream (the object budgets and the
// batch pending budget bound the in-flight volume that can ever land
// in them), which is what credit-based flow control means. Call it
// before registering endpoints.
func (n *Net) SetFlow(opts flow.Options, ctrs *flow.Counters) {
	opts = opts.WithDefaults()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.flow = &opts
	n.flowCtrs = ctrs
}

// SetTrace makes the network emit server-side trace events — a
// busy-emit per traced op it pushes back with wire.Busy — into tr,
// attributed to shard and to the overloaded object's member index.
// Like SetFlow, call it before registering endpoints.
func (n *Net) SetTrace(tr *obs.Tracer, shard int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.trace = tr
	n.trShard = shard
}

// QueueDepth reports the current request-queue depth of a served object
// (0 for unknown IDs) — the probe behind the store's serve-event
// queue-depth detail.
func (n *Net) QueueDepth(id transport.NodeID) int {
	n.mu.Lock()
	srv := n.objects[id]
	n.mu.Unlock()
	if srv == nil {
		return 0
	}
	return srv.depth()
}

// Register creates the endpoint of an active node.
func (n *Net) Register(id transport.NodeID) (transport.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	if _, dup := n.conns[id]; dup {
		return nil, fmt.Errorf("memnet: %v already registered", id)
	}
	inbox := transport.NewInbox()
	if n.flow != nil {
		inbox = transport.NewBoundedInbox(0, n.flowCtrs) // instrumented; bounded by admission
	}
	c := &conn{net: n, id: id, inbox: inbox}
	n.conns[id] = c
	if n.batching != nil {
		return batch.NewConn(c, *n.batching), nil
	}
	return c, nil
}

// Serve installs a base object handler; the object processes requests
// one at a time (atomic read-modify-write semantics).
func (n *Net) Serve(id transport.NodeID, h transport.Handler) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return transport.ErrClosed
	}
	if _, dup := n.objects[id]; dup {
		return fmt.Errorf("memnet: %v already served", id)
	}
	if n.batching != nil {
		h = batch.WrapHandler(h)
	}
	srv := &objectServer{net: n, id: id, handler: h}
	if n.flow != nil {
		srv.budget = n.flow.ObjectBudget
		srv.linkBudget = n.flow.LinkBudget
		srv.perSender = make(map[transport.NodeID]int)
		srv.ctrs = n.flowCtrs
	}
	srv.cond = sync.NewCond(&srv.mu)
	n.objects[id] = srv
	go srv.run()
	return nil
}

// AddTap registers a message observer invoked for every accepted send,
// before gating, dropping, or delaying.
func (n *Net) AddTap(t transport.Tap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.taps = append(n.taps, t)
}

// SetDelay installs a per-link delay function applied to every delivered
// message; nil removes delays.
func (n *Net) SetDelay(fn func(from, to transport.NodeID) time.Duration) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.delayFn = fn
}

// Block holds all subsequent messages on the directed link from→to until
// Unblock. Held messages are "in transit" in the paper's sense.
func (n *Net) Block(from, to transport.NodeID) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gateLocked(from, to).blocked = true
}

// Unblock re-opens the link and delivers all held messages in order.
func (n *Net) Unblock(from, to transport.NodeID) {
	n.mu.Lock()
	g := n.gateLocked(from, to)
	g.blocked = false
	held := g.queue
	g.queue = nil
	n.mu.Unlock()
	for _, p := range held {
		n.route(p.from, p.to, p.payload)
	}
}

// BlockNode blocks every link into and out of id against every currently
// known peer.
func (n *Net) BlockNode(id transport.NodeID) {
	for _, peer := range n.peers(id) {
		n.Block(id, peer)
		n.Block(peer, id)
	}
}

// UnblockNode reverses BlockNode.
func (n *Net) UnblockNode(id transport.NodeID) {
	for _, peer := range n.peers(id) {
		n.Unblock(id, peer)
		n.Unblock(peer, id)
	}
}

// DropNext discards the next k messages on the directed link from→to.
func (n *Net) DropNext(from, to transport.NodeID, k int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gateLocked(from, to).dropN += k
}

// Crash silences a base object: all queued and future requests to it are
// dropped and it does not reply until (unless) Restart is called.
// Crashing an unknown ID is a no-op that still records the crash
// (requests to it drop).
func (n *Net) Crash(id transport.NodeID) {
	n.mu.Lock()
	n.crashed[id] = true
	srv := n.objects[id]
	n.mu.Unlock()
	if srv != nil {
		srv.crash()
	}
}

// Restart revives a crashed base object. Its handler state is intact —
// the model is crash-recovery with stable storage — but every request
// that was queued or in flight at crash time is gone for good: the crash
// discarded them, matching the paper's view that a message lost to a
// faulty object is forever "in transit". Restarting a non-crashed or
// unknown object is a no-op.
func (n *Net) Restart(id transport.NodeID) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	delete(n.crashed, id)
	srv := n.objects[id]
	n.mu.Unlock()
	if srv != nil {
		srv.restart()
	}
	return nil
}

// RestartAmnesia revives a crashed base object WITHOUT stable storage:
// the handler's volatile state is wiped (transport.Amnesiac.Forget)
// before service resumes, modeling a process that restarts from an
// empty disk. A handler that cannot forget restarts with its state
// intact instead — the stable-storage model of Restart — so callers who
// require amnesia semantics must serve an Amnesiac handler. Like
// Restart, requests queued or in flight at crash time are gone for
// good.
func (n *Net) RestartAmnesia(id transport.NodeID) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	var h transport.Handler
	// Only a crashed object loses its state: amnesia-restarting a live
	// object is a no-op like Restart, never a wipe of a serving handler
	// (mirroring tcpnet's crashed-guard).
	if srv := n.objects[id]; srv != nil && n.crashed[id] {
		h = srv.handler
	}
	n.mu.Unlock()
	if a, ok := h.(transport.Amnesiac); ok {
		a.Forget()
	}
	return n.Restart(id)
}

// Evict permanently removes a served base object: its goroutine exits,
// queued requests are discarded, and all future traffic to it drops
// silently (an unknown destination, forever "in transit") — the
// membership subsystem's release of a replaced object's endpoint. The
// address is not reusable; replacements are served at fresh addresses.
// Evicting an unknown ID is a no-op.
func (n *Net) Evict(id transport.NodeID) {
	n.mu.Lock()
	srv := n.objects[id]
	delete(n.objects, id)
	delete(n.crashed, id)
	n.mu.Unlock()
	if srv != nil {
		srv.stop()
	}
}

// Crashed reports whether id has been crashed.
func (n *Net) Crashed(id transport.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

// Close shuts the network down: all endpoints return ErrClosed, object
// goroutines exit, delayed deliveries are awaited.
func (n *Net) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	conns := make([]*conn, 0, len(n.conns))
	for _, c := range n.conns {
		conns = append(conns, c)
	}
	objs := make([]*objectServer, 0, len(n.objects))
	for _, o := range n.objects {
		objs = append(objs, o)
	}
	n.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
	for _, o := range objs {
		o.stop()
	}
	n.delivery.Wait()
	return nil
}

func (n *Net) gateLocked(from, to transport.NodeID) *gate {
	k := linkKey{from, to}
	g := n.gates[k]
	if g == nil {
		g = &gate{}
		n.gates[k] = g
	}
	return g
}

func (n *Net) peers(id transport.NodeID) []transport.NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	var out []transport.NodeID
	for other := range n.conns {
		if other != id {
			out = append(out, other)
		}
	}
	for other := range n.objects {
		if other != id {
			out = append(out, other)
		}
	}
	return out
}

// send is the single entry point for all traffic (client→object,
// object→client replies). It applies taps, crash filtering, gating,
// dropping, and delays, then routes.
func (n *Net) send(from, to transport.NodeID, payload wire.Msg) {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	taps := n.taps
	n.mu.Unlock()
	// Taps run outside n.mu: they are foreign code and may call back
	// into the network (Crashed, Block, ...) without deadlocking. The
	// Tap contract already requires concurrency safety.
	for _, t := range taps {
		t.OnMessage(from, to, payload)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	if n.crashed[to] || n.crashed[from] {
		n.mu.Unlock()
		return
	}
	g := n.gateLocked(from, to)
	if g.dropN > 0 {
		g.dropN--
		n.mu.Unlock()
		return
	}
	if g.blocked {
		g.queue = append(g.queue, pending{from, to, payload})
		n.mu.Unlock()
		return
	}
	delayFn := n.delayFn
	if delayFn == nil {
		n.mu.Unlock()
		n.route(from, to, payload)
		return
	}
	// The delay policy is user code too; account the delivery under the
	// lock, then consult the policy outside it.
	n.delivery.Add(1)
	n.mu.Unlock()
	if delay := delayFn(from, to); delay > 0 {
		time.AfterFunc(delay, func() {
			defer n.delivery.Done()
			n.route(from, to, payload)
		})
		return
	}
	n.delivery.Done()
	n.route(from, to, payload)
}

// route hands a message to its destination: a conn inbox or an object
// queue. Unknown destinations silently drop (message forever in transit).
func (n *Net) route(from, to transport.NodeID, payload wire.Msg) {
	n.mu.Lock()
	if n.closed || n.crashed[to] {
		n.mu.Unlock()
		return
	}
	if c := n.conns[to]; c != nil {
		n.mu.Unlock()
		c.push(transport.Message{From: from, Payload: wire.Clone(payload)})
		return
	}
	srv := n.objects[to]
	tr, shard := n.trace, n.trShard
	n.mu.Unlock()
	if srv != nil {
		if !srv.enqueue(from, wire.Clone(payload)) {
			// The object's bounded request queue is full: overload becomes
			// an explicit signal — a Busy notice naming the rejected ops
			// travels back instead of the queue growing without bound. The
			// pushback pays the normal send-path dice (taps, delays).
			busy := wire.BusyFor(payload)
			if tr != nil {
				detail := fmt.Sprintf("queue=%d", srv.depth())
				for _, op := range wire.OpIDs(busy, nil) {
					tr.Record(obs.Event{Op: op, Kind: obs.EvBusyEmit, Shard: shard, Member: to.Index, Detail: detail})
				}
			}
			n.send(to, from, busy)
		}
	}
}

// conn is an active node's endpoint with an unbounded inbox.
type conn struct {
	net   *Net
	id    transport.NodeID
	inbox *transport.Inbox
}

// ID returns the owning node's ID.
func (c *conn) ID() transport.NodeID { return c.id }

// Send enqueues payload for delivery to the given node.
func (c *conn) Send(to transport.NodeID, payload wire.Msg) {
	c.net.send(c.id, to, payload)
}

// Recv returns the next delivered message, blocking until one arrives,
// the context is cancelled, or the endpoint closes.
func (c *conn) Recv(ctx context.Context) (transport.Message, error) {
	return c.inbox.Recv(ctx)
}

// Close releases the endpoint.
func (c *conn) Close() error {
	c.inbox.Close()
	return nil
}

func (c *conn) push(m transport.Message) {
	c.inbox.Push(m)
}

// objectServer serializes handler invocations for one base object.
type objectServer struct {
	net        *Net
	id         transport.NodeID
	handler    transport.Handler
	budget     int                      // pending-request cap; 0 = unbounded
	linkBudget int                      // per-sender share of the queue; 0 = unbounded
	perSender  map[transport.NodeID]int // queued requests per sender (nil without flow)
	ctrs       *flow.Counters

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []objectReq
	crashed bool
	stopped bool
}

type objectReq struct {
	from    transport.NodeID
	payload wire.Msg
}

// enqueue queues one request for the serialized handler; false means
// the bounded queue (total, or this sender's per-link share of it) is
// full and the caller must push back. Shedding REQUESTS is always safe
// — the client's hedge re-sends them — which is why the per-link
// budget is enforced here and not on reply mailboxes, where a shed
// acknowledgement could never be re-elicited. The per-sender share
// also keeps one flooding client from monopolizing the whole queue.
// Requests to a crashed or stopped object are silently discarded
// (true: the message is "in transit forever", not an overload signal).
func (s *objectServer) enqueue(from transport.NodeID, payload wire.Msg) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped || s.crashed {
		return true
	}
	if s.budget > 0 && len(s.queue) >= s.budget {
		return false
	}
	if s.linkBudget > 0 && s.perSender[from] >= s.linkBudget {
		return false
	}
	s.queue = append(s.queue, objectReq{from, payload})
	if s.perSender != nil {
		s.perSender[from]++
		s.ctrs.RecordLink(s.perSender[from])
	}
	s.ctrs.RecordObject(len(s.queue))
	s.cond.Signal()
	return true
}

// depth reports the current pending-request queue length.
func (s *objectServer) depth() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

func (s *objectServer) crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = true
	s.queue = nil // in-flight requests die with the crash
	if s.perSender != nil {
		s.perSender = make(map[transport.NodeID]int)
	}
	s.cond.Broadcast()
}

func (s *objectServer) restart() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed = false
	s.cond.Broadcast()
}

func (s *objectServer) stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stopped = true
	s.cond.Broadcast()
}

// run serializes handler invocations. A crashed server parks here (its
// goroutine outlives the crash so a restart resumes service without
// racing a second run loop); only stop makes it exit.
func (s *objectServer) run() {
	for {
		s.mu.Lock()
		for !s.stopped && (s.crashed || len(s.queue) == 0) {
			s.cond.Wait()
		}
		if s.stopped {
			s.mu.Unlock()
			return
		}
		req := s.queue[0]
		s.queue = s.queue[1:]
		if s.perSender != nil {
			if s.perSender[req.from]--; s.perSender[req.from] <= 0 {
				delete(s.perSender, req.from)
			}
		}
		s.mu.Unlock()

		reply, ok := s.handler.Handle(req.from, req.payload)
		if ok {
			s.net.send(s.id, req.from, reply)
		}
	}
}
