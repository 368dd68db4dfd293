// Package tcpnet runs the protocols over real TCP sockets: each base
// object listens on its own address, clients keep one connection per
// object and exchange length-prefixed compact-codec frames (see
// internal/wire's EncodeCompact — reflection-free and cheap per
// message, which matters on the batched hot path where one frame
// carries up to MaxBatch ops). It implements the same transport
// interfaces as memnet and simnet, so every client in this repository
// runs over it unchanged — the cmd/robustread demo and the integration
// tests use it for end-to-end realism.
package tcpnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/batch"
	"repro/internal/transport/flow"
	"repro/internal/wire"
)

// maxFrame caps the accepted frame length: a malicious peer must not
// make us allocate unbounded memory from a tiny prefix.
const maxFrame = 1 << 26

// frameBuf is a pooled scratch buffer for frame assembly and reads.
// DecodeCompact copies every byte a decoded message retains, and
// writeFrame flushes before returning, so buffers can be recycled the
// moment either function returns.
type frameBuf struct{ b []byte }

var framePool = sync.Pool{New: func() interface{} { return new(frameBuf) }}

// maxPooledFrame bounds the capacity retained by pooled frame buffers:
// a one-off state-transfer frame must not pin its footprint forever.
const maxPooledFrame = 128 << 10

func putFrame(fb *frameBuf) {
	if cap(fb.b) <= maxPooledFrame {
		framePool.Put(fb)
	}
}

// writeFrame writes one frame: uvarint total length, then the sender's
// node identity (two varints), then the compact-encoded message. The
// header and message are assembled in a pooled buffer — zero
// steady-state allocations per frame. The caller serializes writes per
// connection.
func writeFrame(w *bufio.Writer, from transport.NodeID, m wire.Msg) error {
	fb := framePool.Get().(*frameBuf)
	defer putFrame(fb)
	buf := fb.b[:0]
	buf = binary.AppendVarint(buf, int64(from.Kind))
	buf = binary.AppendVarint(buf, int64(from.Index))
	buf, err := wire.AppendCompact(buf, m)
	fb.b = buf
	if err != nil {
		return err
	}
	var ln [binary.MaxVarintLen64]byte
	k := binary.PutUvarint(ln[:], uint64(len(buf)))
	if _, err := w.Write(ln[:k]); err != nil {
		return err
	}
	if _, err := w.Write(buf); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one frame written by writeFrame.
func readFrame(r *bufio.Reader) (transport.NodeID, wire.Msg, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return transport.NodeID{}, nil, err
	}
	if n > maxFrame {
		return transport.NodeID{}, nil, fmt.Errorf("tcpnet: frame length %d exceeds cap", n)
	}
	// Fill a pooled buffer chunk by chunk, growing with the bytes that
	// actually arrive rather than sizing it from the declared length: a
	// peer announcing a huge frame and then stalling must not pin the
	// allocation up front.
	fb := framePool.Get().(*frameBuf)
	defer putFrame(fb)
	buf := fb.b[:0]
	for remaining := int(n); remaining > 0; {
		chunk := remaining
		if chunk > 64<<10 {
			chunk = 64 << 10
		}
		start := len(buf)
		if need := start + chunk; cap(buf) < need {
			grown := make([]byte, start, max(need, 2*cap(buf)))
			copy(grown, buf)
			buf = grown
		}
		buf = buf[:start+chunk]
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			fb.b = buf
			return transport.NodeID{}, nil, err
		}
		remaining -= chunk
	}
	fb.b = buf
	kind, k1 := binary.Varint(buf)
	if k1 <= 0 {
		return transport.NodeID{}, nil, fmt.Errorf("tcpnet: bad frame header")
	}
	index, k2 := binary.Varint(buf[k1:])
	if k2 <= 0 {
		return transport.NodeID{}, nil, fmt.Errorf("tcpnet: bad frame header")
	}
	m, err := wire.DecodeCompact(buf[k1+k2:])
	if err != nil {
		return transport.NodeID{}, nil, err
	}
	return transport.NodeID{Kind: transport.NodeKind(kind), Index: int(index)}, m, nil
}

// Net assembles TCP endpoints. Objects are served with Serve (each gets
// its own listener); clients Register and dial objects lazily. Crash and
// Restart model base-object failure at the socket level: a crash closes
// the object's listener and severs every established connection, a
// restart re-listens on the same address so clients can re-dial.
type Net struct {
	mu        sync.Mutex
	addrs     map[transport.NodeID]string
	listeners map[transport.NodeID]net.Listener
	handlers  map[transport.NodeID]transport.Handler
	srvConns  map[transport.NodeID]map[net.Conn]struct{}
	crashed   map[transport.NodeID]bool
	conns     []*conn
	taps      []transport.Tap
	batching  *batch.Options
	flow      *flow.Options
	flowCtrs  *flow.Counters
	admission map[transport.NodeID]*flow.Credits
	trace     *obs.Tracer
	trShard   int
	closed    bool
	wg        sync.WaitGroup
}

// New returns an empty TCP network on loopback.
func New() *Net {
	return &Net{
		addrs:     make(map[transport.NodeID]string),
		listeners: make(map[transport.NodeID]net.Listener),
		handlers:  make(map[transport.NodeID]transport.Handler),
		srvConns:  make(map[transport.NodeID]map[net.Conn]struct{}),
		crashed:   make(map[transport.NodeID]bool),
		admission: make(map[transport.NodeID]*flow.Credits),
	}
}

// SetFlow bounds the queues of subsequently created endpoints per opts
// (see internal/transport/flow): each served object admits at most
// ObjectBudget requests concurrently across its connections — beyond
// that a request is answered with a wire.Busy notice instead of
// being processed (the socket buffers below stay OS-bounded either
// way; the admission cap is what turns saturation into an explicit,
// immediate signal). LinkBudget needs no enforcement here: a
// connection serves one request at a time and a client dials one
// connection per object, so a sender's in-service share is
// structurally 1. Client inboxes are instrumented (depth reported
// into ctrs) but not enforced — a shed reply cannot be re-elicited, so
// reply queues are bounded by the admission budgets upstream instead
// (see memnet.SetFlow). Call it before registering endpoints.
func (n *Net) SetFlow(opts flow.Options, ctrs *flow.Counters) {
	opts = opts.WithDefaults()
	n.mu.Lock()
	defer n.mu.Unlock()
	n.flow = &opts
	n.flowCtrs = ctrs
}

// SetTrace makes the network emit server-side trace events — a
// busy-emit per traced op an admission overflow pushes back with
// wire.Busy — into tr, attributed to shard and to the overloaded
// object's member index. Like SetFlow, call it before registering
// endpoints.
func (n *Net) SetTrace(tr *obs.Tracer, shard int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.trace = tr
	n.trShard = shard
}

// AddTap registers a message observer (applied on the client side to
// outgoing requests and incoming replies).
func (n *Net) AddTap(t transport.Tap) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.taps = append(n.taps, t)
}

func (n *Net) tapAll(from, to transport.NodeID, payload wire.Msg) {
	n.mu.Lock()
	taps := append([]transport.Tap(nil), n.taps...)
	n.mu.Unlock()
	for _, t := range taps {
		t.OnMessage(from, to, payload)
	}
}

// EnableBatching makes the network coalesce concurrent client→object
// traffic into wire.Batch frames (see internal/transport/batch): each
// batch is one length-prefixed compact-codec frame — one encoder run
// and one socket write for up to MaxBatch ops. Conns created by
// subsequent Register calls gain the batching send path and handlers
// installed by subsequent Serve calls unpack batch frames; call it
// before registering endpoints.
func (n *Net) EnableBatching(opts batch.Options) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.batching = &opts
}

// Serve starts a listener for object id and handles each accepted
// connection with h. Requests on one connection are processed in order;
// the object's Handler must be safe for concurrent use across
// connections (all objects in this repository are).
func (n *Net) Serve(id transport.NodeID, h transport.Handler) error {
	n.mu.Lock()
	if n.batching != nil {
		h = batch.WrapHandler(h)
	}
	n.mu.Unlock()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("tcpnet: listen for %v: %w", id, err)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return transport.ErrClosed
	}
	if _, dup := n.addrs[id]; dup {
		n.mu.Unlock()
		ln.Close()
		return fmt.Errorf("tcpnet: %v already served", id)
	}
	n.addrs[id] = ln.Addr().String()
	n.listeners[id] = ln
	n.handlers[id] = h
	if n.flow != nil {
		n.admission[id] = flow.NewCredits(n.flow.ObjectBudget)
	}
	// Register the accept loop with wg while still holding the lock
	// that vouched for !closed: Close flips closed under the same lock
	// before waiting, so it cannot observe a zero counter in between.
	n.wg.Add(1)
	n.mu.Unlock()

	go n.acceptLoop(id, h, ln)
	return nil
}

// acceptLoop serves one listener generation of an object; Crash closes
// the listener (and the accepted connections) to end it, Restart starts
// a fresh one.
func (n *Net) acceptLoop(id transport.NodeID, h transport.Handler, ln net.Listener) {
	defer n.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !n.trackServerConn(id, c) {
			c.Close() // lost the race with a crash
			continue
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			defer n.untrackServerConn(id, c)
			n.serveConn(id, h, c)
		}()
	}
}

// trackServerConn records an accepted connection so a crash can sever
// it; false when the object is crashed or the network closed.
func (n *Net) trackServerConn(id transport.NodeID, c net.Conn) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed || n.crashed[id] {
		return false
	}
	set := n.srvConns[id]
	if set == nil {
		set = make(map[net.Conn]struct{})
		n.srvConns[id] = set
	}
	set[c] = struct{}{}
	return true
}

func (n *Net) untrackServerConn(id transport.NodeID, c net.Conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if set := n.srvConns[id]; set != nil {
		delete(set, c)
	}
}

func (n *Net) serveConn(id transport.NodeID, h transport.Handler, c net.Conn) {
	defer c.Close()
	n.mu.Lock()
	admission := n.admission[id]
	ctrs := n.flowCtrs
	tr, shard := n.trace, n.trShard
	n.mu.Unlock()
	r := bufio.NewReader(c)
	w := bufio.NewWriter(c)
	for {
		from, payload, err := readFrame(r)
		if err != nil {
			return // EOF, peer gone, or malformed frame
		}
		if admission != nil && !admission.TryAcquire() {
			// The object is at its admission budget across connections:
			// push back with a Busy notice instead of queueing behind the
			// other requests — overload must signal, not stall.
			busy := wire.BusyFor(payload)
			if tr != nil {
				detail := fmt.Sprintf("inflight=%d", admission.HighWater())
				for _, op := range wire.OpIDs(busy, nil) {
					tr.Record(obs.Event{Op: op, Kind: obs.EvBusyEmit, Shard: shard, Member: id.Index, Detail: detail})
				}
			}
			if err := writeFrame(w, id, busy); err != nil {
				return
			}
			continue
		}
		reply, send := h.Handle(from, payload)
		if admission != nil {
			ctrs.RecordObject(admission.HighWater())
			admission.Release(1)
		}
		if !send {
			continue
		}
		if err := writeFrame(w, id, reply); err != nil {
			return
		}
	}
}

// Crash silences a served object at the socket level: its listener
// closes, every established connection to it is severed (discarding
// whatever frames were in flight on them), and dials fail until Restart.
// The handler and its state survive — the model is crash-recovery with
// stable storage. Crashing an unknown or already-crashed object is a
// no-op.
func (n *Net) Crash(id transport.NodeID) {
	n.mu.Lock()
	if n.crashed[id] {
		n.mu.Unlock()
		return
	}
	ln, served := n.listeners[id]
	if !served {
		n.mu.Unlock()
		return
	}
	n.crashed[id] = true
	delete(n.listeners, id)
	conns := n.srvConns[id]
	delete(n.srvConns, id)
	n.mu.Unlock()
	ln.Close()
	for c := range conns {
		c.Close()
	}
}

// Evict permanently removes a served object: its listener closes, every
// established connection to it is severed, and its address is forgotten
// so later dials fail — the membership subsystem's release of a
// replaced object's endpoint. Unlike Crash, there is no way back: the
// handler and address registrations are dropped, Restart on the ID is a
// no-op, and replacements are served at fresh addresses. Evicting an
// unknown ID is a no-op.
func (n *Net) Evict(id transport.NodeID) {
	n.mu.Lock()
	ln := n.listeners[id]
	conns := n.srvConns[id]
	delete(n.listeners, id)
	delete(n.srvConns, id)
	delete(n.addrs, id)
	delete(n.handlers, id)
	delete(n.crashed, id)
	delete(n.admission, id)
	n.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for c := range conns {
		c.Close()
	}
}

// Crashed reports whether id is currently crashed.
func (n *Net) Crashed(id transport.NodeID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.crashed[id]
}

// Restart re-serves a crashed object on its original address, so clients
// holding that address (or re-dialing lazily) reach it again. The bind
// is retried briefly — another socket can transiently hold the old
// ephemeral port — and an error is returned if the address stays
// unavailable, in which case the object remains crashed.
func (n *Net) Restart(id transport.NodeID) error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return transport.ErrClosed
	}
	if !n.crashed[id] {
		n.mu.Unlock()
		return nil
	}
	addr := n.addrs[id]
	h := n.handlers[id]
	n.mu.Unlock()

	var ln net.Listener
	var err error
	for attempt := 0; attempt < 20; attempt++ {
		if ln, err = net.Listen("tcp", addr); err == nil {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("tcpnet: restart %v on %s: %w", id, addr, err)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		ln.Close()
		return transport.ErrClosed
	}
	delete(n.crashed, id)
	n.listeners[id] = ln
	// wg.Add under the lock that vouched for !closed (see Serve).
	n.wg.Add(1)
	n.mu.Unlock()

	go n.acceptLoop(id, h, ln)
	return nil
}

// RestartAmnesia re-serves a crashed object on its original address
// WITHOUT stable storage: the handler's volatile state is wiped
// (transport.Amnesiac.Forget) before the listener comes back, modeling
// a process that restarts from an empty disk. A handler that cannot
// forget restarts with its state intact instead (the Restart model).
// The wipe happens before the re-listen, so no frame is served from
// pre-crash state.
func (n *Net) RestartAmnesia(id transport.NodeID) error {
	n.mu.Lock()
	crashed := n.crashed[id]
	h := n.handlers[id]
	n.mu.Unlock()
	if crashed {
		if a, ok := h.(transport.Amnesiac); ok {
			a.Forget()
		}
	}
	return n.Restart(id)
}

// Addr returns the listen address of a served object (tests and demos).
func (n *Net) Addr(id transport.NodeID) (string, bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	a, ok := n.addrs[id]
	return a, ok
}

// Register creates a client endpoint that dials objects on demand.
func (n *Net) Register(id transport.NodeID) (transport.Conn, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, transport.ErrClosed
	}
	inbox := transport.NewInbox()
	if n.flow != nil {
		inbox = transport.NewBoundedInbox(0, n.flowCtrs) // instrumented; bounded by admission
	}
	c := &conn{
		net:   n,
		id:    id,
		peers: make(map[transport.NodeID]*peer),
		inbox: inbox,
	}
	n.conns = append(n.conns, c)
	if n.batching != nil {
		return batch.NewConn(c, *n.batching), nil
	}
	return c, nil
}

// Close shuts down all listeners and client connections.
func (n *Net) Close() error {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil
	}
	n.closed = true
	lns := make([]net.Listener, 0, len(n.listeners))
	for _, ln := range n.listeners {
		lns = append(lns, ln)
	}
	var srv []net.Conn
	for _, set := range n.srvConns {
		for c := range set {
			srv = append(srv, c)
		}
	}
	conns := n.conns
	n.mu.Unlock()
	for _, ln := range lns {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	for _, c := range srv {
		c.Close()
	}
	n.wg.Wait()
	return nil
}

// peer is one client→object TCP connection.
type peer struct {
	mu sync.Mutex // serializes frame writes
	c  net.Conn
	w  *bufio.Writer
}

// conn is a client endpoint.
type conn struct {
	net    *Net
	id     transport.NodeID
	mu     sync.Mutex
	peers  map[transport.NodeID]*peer
	inbox  *transport.Inbox
	closed bool
	wg     sync.WaitGroup
}

// ID returns the owning node's ID.
func (c *conn) ID() transport.NodeID { return c.id }

// Send dials to (once) and writes the frame. On a write failure — the
// typical aftermath of the object crashing and closing the socket — the
// dead peer is evicted and the send retried once over a fresh
// connection, so a restarted object is reachable again without protocol
// cooperation. Remaining failures are silent: in the asynchronous model
// an undeliverable message is simply forever in transit.
func (c *conn) Send(to transport.NodeID, payload wire.Msg) {
	c.net.tapAll(c.id, to, payload)
	for attempt := 0; attempt < 2; attempt++ {
		p, err := c.peerFor(to)
		if err != nil {
			return // endpoint closed, or the object is unreachable (down)
		}
		p.mu.Lock()
		err = writeFrame(p.w, c.id, payload)
		p.mu.Unlock()
		if err == nil {
			return
		}
		c.dropPeer(to, p)
	}
}

// dropPeer evicts a dead connection so the next Send re-dials. Only the
// exact peer is evicted: a concurrent Send may already have installed a
// fresh one.
func (c *conn) dropPeer(to transport.NodeID, p *peer) {
	c.mu.Lock()
	if c.peers[to] == p {
		delete(c.peers, to)
	}
	c.mu.Unlock()
	p.c.Close()
}

func (c *conn) peerFor(to transport.NodeID) (*peer, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if p, ok := c.peers[to]; ok {
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()

	c.net.mu.Lock()
	addr, ok := c.net.addrs[to]
	c.net.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("tcpnet: no address for %v", to)
	}
	// Dial outside c.mu: an unresponsive object must not stall Sends to
	// other peers (or Close) behind the connection lock.
	sock, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: dial %v: %w", to, err)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		sock.Close()
		return nil, transport.ErrClosed
	}
	if p, ok := c.peers[to]; ok {
		// Lost a dial race; keep the peer that won and drop our socket.
		c.mu.Unlock()
		sock.Close()
		return p, nil
	}
	p := &peer{c: sock, w: bufio.NewWriter(sock)}
	c.peers[to] = p
	c.wg.Add(1)
	go c.readLoop(to, p)
	c.mu.Unlock()
	return p, nil
}

// readLoop pushes replies from one object connection into the inbox,
// evicting the peer when the connection dies so a later Send re-dials
// (the object may have crashed and restarted in between).
func (c *conn) readLoop(from transport.NodeID, p *peer) {
	defer c.wg.Done()
	defer c.dropPeer(from, p)
	r := bufio.NewReader(p.c)
	for {
		sender, payload, err := readFrame(r)
		if err != nil {
			// EOF, closed socket, or a frame dropped mid-transfer; the
			// model treats the remaining traffic as in transit forever.
			return
		}
		c.net.tapAll(sender, c.id, payload)
		if !c.inbox.Push(transport.Message{From: sender, Payload: payload}) {
			return // endpoint closed
		}
	}
}

// Recv returns the next delivered reply.
func (c *conn) Recv(ctx context.Context) (transport.Message, error) {
	return c.inbox.Recv(ctx)
}

// Close tears down all object connections.
func (c *conn) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	peers := make([]*peer, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
	}
	c.mu.Unlock()
	c.inbox.Close()
	for _, p := range peers {
		p.c.Close()
	}
	c.wg.Wait()
	return nil
}
