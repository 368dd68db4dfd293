package main

import (
	"context"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/transport/batch"
	"repro/internal/transport/memnet"
	"repro/internal/transport/tcpnet"
	"repro/internal/types"
	"repro/internal/wire"
	"repro/store"
)

// Layer self-cost: single-goroutine timed calls into each layer's
// public functions, over the messages the tap captured in this
// workload's traced run. Nothing inside the layers is instrumented.

// layerCalls is the number of timed calls per measurement; the
// compound ones (a tcpnet hop, a whole core operation: tens of µs and
// several messages each) run a quarter of it.
const layerCalls = 100_000

// sink keeps the compiler from discarding a measured call's result.
var sink any

// timed runs fn n times and returns the mean ns and allocations per
// call.
func timed(n int, fn func(i int)) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// clockCost is the cost in ns of one time.Now/time.Since pair, which
// the per-call timings of the object replay subtract.
func clockCost() float64 {
	const n = 200_000
	var acc time.Duration
	start := time.Now()
	for i := 0; i < n; i++ {
		t := time.Now()
		acc += time.Since(t)
	}
	sink = acc
	return float64(time.Since(start).Nanoseconds()) / n
}

// echo replies to every request with the request itself.
var echo = transport.HandlerFunc(func(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) { return req, true })

// hopNet is what the hop measurements need of memnet.Net and
// tcpnet.Net.
type hopNet interface {
	transport.Network
	Close() error
}

// hop measures Send → echo handler → Recv over nw.
func hop(nw hopNet, msgs []wire.Msg, n int) (ns float64, err error) {
	defer nw.Close()
	obj := transport.Object(0)
	if err := nw.Serve(obj, echo); err != nil {
		return 0, err
	}
	conn, err := nw.Register(transport.Writer())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	ns, _ = timed(n, func(i int) {
		conn.Send(obj, msgs[i%len(msgs)])
		if _, rerr := conn.Recv(ctx); rerr != nil && err == nil {
			err = rerr
		}
	})
	return ns, err
}

// batchSendCost is what batch.NewConn in pass-through (no concurrent
// sender, so nothing coalesces) adds to a Send: Send is timed call by
// call through a wrapped and through a bare memnet endpoint, the echo
// drained untimed, and the difference reported. It is 10–120 ns, near
// the floor of what this can resolve.
func batchSendCost(msgs []wire.Msg, n int) (float64, error) {
	nw := memnet.New()
	defer nw.Close()
	obj := transport.Object(0)
	if err := nw.Serve(obj, echo); err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	send := func(conn transport.Conn, calls int) (time.Duration, error) {
		var total time.Duration
		for i := 0; i < calls; i++ {
			t := time.Now()
			conn.Send(obj, msgs[i%len(msgs)])
			total += time.Since(t)
			if _, err := conn.Recv(ctx); err != nil {
				return 0, err
			}
		}
		return total, nil
	}
	bare, err := nw.Register(transport.Writer())
	if err != nil {
		return 0, err
	}
	defer bare.Close()
	inner, err := nw.Register(transport.Reader(0))
	if err != nil {
		return 0, err
	}
	wrapped := batch.NewConn(inner, batch.Options{})
	defer wrapped.Close()
	// The difference is tens of ns on a Send of about a µs: the two
	// endpoints take turns in short blocks so that drift in the
	// machine's speed hits both alike.
	const blocks = 100
	per := max(n/blocks, 1)
	var bareTotal, wrappedTotal time.Duration
	for b := 0; b < blocks; b++ {
		d, err := send(bare, per)
		if err != nil {
			return 0, err
		}
		bareTotal += d
		if d, err = send(wrapped, per); err != nil {
			return 0, err
		}
		wrappedTotal += d
	}
	return max(float64((wrappedTotal-bareTotal).Nanoseconds())/float64(blocks*per), 0), nil
}

// replayObject feeds the captured request stream of one base object, in
// captured order, to fresh object.Regular automata (one per register,
// history pruning on, as the store builds them), pass after pass until
// n calls were timed.
func replayObject(reqs []capturedReq, n int) (writeNs, readNs, allocs float64) {
	clock := clockCost()
	var wTotal, rTotal time.Duration
	var wCalls, rCalls int
	var mallocs uint64
	from := transport.Writer()
	for wCalls+rCalls < n {
		objs := make(map[string]*object.Regular)
		for _, rq := range reqs {
			if objs[rq.reg] == nil {
				o := object.NewRegular(capObject, readersPerShard)
				o.EnableGC()
				objs[rq.reg] = o
			}
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for _, rq := range reqs {
			o := objs[rq.reg]
			t := time.Now()
			reply, _ := o.Handle(from, rq.msg)
			d := time.Since(t)
			sink = reply
			if _, isRead := rq.msg.(wire.ReadReq); isRead {
				rTotal += d
				rCalls++
			} else {
				wTotal += d
				wCalls++
			}
		}
		runtime.ReadMemStats(&after)
		mallocs += after.Mallocs - before.Mallocs
	}
	per := func(total time.Duration, calls int) float64 {
		if calls == 0 {
			return 0
		}
		return max(float64(total.Nanoseconds())/float64(calls)-clock, 0)
	}
	return per(wTotal, wCalls), per(rTotal, rCalls), float64(mallocs) / float64(wCalls+rCalls)
}

// coreCost is one core client's operation over bare memnet, no store.
type coreCost struct {
	wallUs float64 // mean latency
	cpuUs  float64 // process CPU per op (client + the S object goroutines)
	frames float64 // messages per op at the network
	reqs   float64 // requests per op
}

// frameCounter is a tap counting the messages, and among them the
// client→object requests, a network accepts.
type frameCounter struct{ frames, reqs atomic.Int64 }

func (c *frameCounter) OnMessage(_, to transport.NodeID, _ wire.Msg) {
	c.frames.Add(1)
	if to.Kind == transport.KindObject {
		c.reqs.Add(1)
	}
}

// coreOps alternates n writes and n reads of one core.Writer and one
// core.RegularReader over a bare memnet of S = 4 objects (t = b = 1,
// one reader so history pruning keeps up), fast path and pipelining on
// as in the store. The pending write-back is flushed, untimed, before
// each read, as the store does. CPU is measured over the whole loop
// and split between the two op types by their wall time.
func coreOps(valueBytes, n int) (write, read coreCost, err error) {
	cfg := quorum.Optimal(1, 1, 1)
	nw := memnet.New()
	defer nw.Close()
	counter := &frameCounter{}
	nw.AddTap(counter)
	for i := 0; i < cfg.S; i++ {
		o := object.NewRegular(types.ObjectID(i), cfg.R)
		o.EnableGC()
		if err := nw.Serve(transport.Object(types.ObjectID(i)), o); err != nil {
			return write, read, err
		}
	}
	wconn, err := nw.Register(transport.Writer())
	if err != nil {
		return write, read, err
	}
	rconn, err := nw.Register(transport.Reader(0))
	if err != nil {
		return write, read, err
	}
	wr, err := core.NewWriter(cfg, wconn)
	if err != nil {
		return write, read, err
	}
	wr.SetPipelined(true)
	rd, err := core.NewRegularReader(cfg, rconn, 0, true)
	if err != nil {
		return write, read, err
	}
	rd.SetFastPath(true)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	val := make(types.Value, valueBytes)
	var wall [2]time.Duration // write, read
	var frames, reqs [2]int64
	count := func(kind int, fn func() error) error {
		f, r := counter.frames.Load(), counter.reqs.Load()
		start := time.Now()
		err := fn()
		wall[kind] += time.Since(start)
		frames[kind] += counter.frames.Load() - f
		reqs[kind] += counter.reqs.Load() - r
		return err
	}
	cpu := processCPU()
	for i := 0; i < n; i++ {
		if err := count(0, func() error { return wr.Write(ctx, val) }); err != nil {
			return write, read, err
		}
		if err := wr.Flush(ctx); err != nil {
			return write, read, err
		}
		if err := count(1, func() error { _, e := rd.Read(ctx); return e }); err != nil {
			return write, read, err
		}
	}
	cpu = processCPU() - cpu
	cost := func(kind int) coreCost {
		share := float64(wall[kind]) / float64(wall[0]+wall[1])
		return coreCost{
			wallUs: float64(wall[kind].Nanoseconds()) / 1e3 / float64(n),
			cpuUs:  share * float64(cpu.Nanoseconds()) / 1e3 / float64(n),
			frames: float64(frames[kind]) / float64(n),
			reqs:   float64(reqs[kind]) / float64(n),
		}
	}
	return cost(0), cost(1), nil
}

// layerInputs is what the budget needs from the workload's own runs.
type layerInputs struct {
	cpuUsPerOp  float64 // untraced reference run
	readShare   float64 // reads / ops
	framesPerOp float64
	reqFrames   float64 // request frames per op
	readReqs    float64 // ReadReq messages per op
	writeReqs   float64 // PWReq + WReq messages per op
	readMeanUs  float64 // untraced mean latencies
	writeMeanUs float64
	batching    bool
	tcp         bool
	valueBytes  int
}

// measureLayers returns the layer self-cost metrics and the CPU budget
// they imply for the workload.
func measureLayers(tr *tracer, in layerInputs, calls int) (map[string]float64, error) {
	frames := tr.capFrames
	var single []wire.Msg // frames that are one register operation
	for _, f := range frames {
		if _, ok := f.(wire.RegOp); ok {
			single = append(single, f)
		}
	}
	if len(single) == 0 || len(tr.capReqs) == 0 {
		return nil, fmt.Errorf("traced run captured %d frames and %d object requests: nothing to replay", len(frames), len(tr.capReqs))
	}
	compound := max(calls/4, 1)
	out := map[string]float64{}

	// wire: the compact codec and the in-memory deep copy.
	var buf []byte
	var encErr error
	out["wire.encode_ns"], out["wire.encode_allocs"] = timed(calls, func(i int) {
		var err error
		if buf, err = wire.AppendCompact(buf[:0], frames[i%len(frames)]); err != nil {
			encErr = err
		}
	})
	encoded := make([][]byte, len(frames))
	for i, f := range frames {
		b, err := wire.EncodeCompact(f)
		if err != nil {
			encErr = err
		}
		encoded[i] = b
	}
	if encErr != nil {
		return nil, fmt.Errorf("encode captured frame: %w", encErr)
	}
	var decErr error
	out["wire.decode_ns"], out["wire.decode_allocs"] = timed(calls, func(i int) {
		m, err := wire.DecodeCompact(encoded[i%len(encoded)])
		if err != nil {
			decErr = err
		}
		sink = m
	})
	if decErr != nil {
		return nil, fmt.Errorf("decode captured frame: %w", decErr)
	}
	out["wire.clone_ns"], out["wire.clone_allocs"] = timed(calls, func(i int) { sink = wire.Clone(frames[i%len(frames)]) })

	// object: serve cost per request type.
	out["object.serve_write_ns"], out["object.serve_read_ns"], out["object.serve_allocs"] = replayObject(tr.capReqs, calls)

	// transports: one hop = request + reply.
	var err error
	if out["memnet.hop_ns"], err = hop(memnet.New(), single, calls); err != nil {
		return nil, fmt.Errorf("memnet hop: %w", err)
	}
	if out["tcpnet.hop_ns"], err = hop(tcpnet.New(), single, compound); err != nil {
		return nil, fmt.Errorf("tcpnet hop: %w", err)
	}
	if out["batch.send_ns"], err = batchSendCost(single, calls); err != nil {
		return nil, fmt.Errorf("batch send: %w", err)
	}

	inbox := transport.NewInbox()
	ctx := context.Background()
	var last transport.Message
	out["transport.inbox_ns"], _ = timed(calls, func(i int) {
		inbox.Push(transport.Message{Payload: single[i%len(single)]})
		last, _ = inbox.Recv(ctx) // the inbox is open and non-empty
	})
	sink = last

	ring, err := store.NewRing(shards, 0)
	if err != nil {
		return nil, err
	}
	var shardSum int
	out["store.ring_lookup_ns"], _ = timed(calls, func(i int) { shardSum += ring.Shard(tr.names[i%len(tr.names)]) })
	sink = shardSum

	// core: a whole operation of the protocol client, without the store.
	cw, cr, err := coreOps(in.valueBytes, compound)
	if err != nil {
		return nil, fmt.Errorf("core ops: %w", err)
	}
	out["core.write_us"], out["core.read_us"] = cw.wallUs, cr.wallUs
	out["store.overhead_write_us"] = in.writeMeanUs - cw.wallUs
	out["store.overhead_read_us"] = in.readMeanUs - cr.wallUs

	// Budget: each self-cost times its calls per op, as a share of the
	// workload's proc.cpu_us_per_op. A memnet hop contains two deep copies
	// and one inbox hand-off, a tcpnet hop two encodes, two decodes and
	// one inbox hand-off; the transports are charged net of those.
	clone, inboxNs := out["wire.clone_ns"], out["transport.inbox_ns"]
	codec := out["wire.encode_ns"] + out["wire.decode_ns"]
	memFrame := max(out["memnet.hop_ns"]-2*clone-inboxNs, 0) / 2
	tcpFrame := max(out["tcpnet.hop_ns"]-2*codec-inboxNs, 0) / 2
	serve := func(writeReqs, readReqs float64) float64 {
		return writeReqs*out["object.serve_write_ns"] + readReqs*out["object.serve_read_ns"]
	}
	// A core operation's CPU over memnet, less what its messages cost in
	// the layers below, is the protocol client's own share.
	coreSelf := func(c coreCost, writeReqs, readReqs float64) float64 {
		below := c.frames*(memFrame+clone) + (c.frames-c.reqs)*inboxNs + serve(writeReqs, readReqs)
		return max(c.cpuUs*1e3-below, 0)
	}
	replies := in.framesPerOp - in.reqFrames
	budget := map[string]float64{
		"object":    serve(in.writeReqs, in.readReqs),
		"transport": 2 * replies * inboxNs, // endpoint inbox, then the per-register mailbox behind the mux
		"core":      in.readShare*coreSelf(cr, 0, cr.reqs) + (1-in.readShare)*coreSelf(cw, cw.reqs, 0),
		"wire":      in.framesPerOp * clone,
		"memnet":    in.framesPerOp * memFrame,
		"tcpnet":    0,
		"batch":     0,
	}
	if in.tcp {
		budget["wire"], budget["memnet"], budget["tcpnet"] = in.framesPerOp*codec, 0, in.framesPerOp*tcpFrame
	}
	if in.batching {
		budget["batch"] = in.reqFrames * out["batch.send_ns"]
	}
	rest := 100.0
	for layer, ns := range budget {
		pct := 100 * ns / 1e3 / in.cpuUsPerOp
		out["budget."+layer+"_pct"] = pct
		rest -= pct
	}
	// What the replays cannot see: the store's mux, slot pool and maps,
	// the scheduler and collector under two clients, the harness.
	out["budget.store_pct"] = rest
	return out, nil
}
