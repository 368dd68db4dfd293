package main

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consistency"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// tracer is the benchmark's view of the traced run, built entirely from
// outside the store: the harness stamps each operation's call and
// return, and a transport.Tap installed with Store.AddTap stamps and
// counts every message the shard networks accept. Messages are matched
// to the operation in flight by (client node, RegOp.Reg) and the
// round's own identifier (the reader's tsr, the writer's ts), so the
// late replies of the ≤ t un-awaited members of an earlier operation
// never count toward a later one.
//
// All methods are no-ops on a nil tracer: the untraced runs carry no
// tracing cost beyond one nil check per operation.
type tracer struct {
	t0     time.Time
	quorum int // S−t

	names  []string
	keyIdx map[string]int32
	keys   []keyTrace

	recs []opRec
	nrec atomic.Int64
	// recs[from:to] are the measured phase.
	from, to int64

	measuring atomic.Bool
	counts    tapCounts

	capMu     sync.Mutex
	capFull   atomic.Bool
	capFrames []wire.Msg    // first frames of the measured phase, cloned
	capReqs   []capturedReq // requests to object 1 of every shard, in tap order
}

// Capture sizes: enough distinct messages that a replay is not one
// cache-resident message, small enough that the clones do not move the
// traced run's heap.
const (
	maxCapFrames = 1024
	maxCapReqs   = 8192
	// capObject is the base object whose request stream is captured: in
	// every workload object 0 may be lossy and the highest-indexed one
	// Byzantine, so object 1 is an honest, reliable member.
	capObject = 1
)

type capturedReq struct {
	reg string
	msg wire.Msg
}

// tapCounts are the boundary counts of the measured phase.
type tapCounts struct {
	frames         atomic.Int64 // messages accepted by the network (a Batch is one)
	reqFrames      atomic.Int64 // frames sent client→object
	regOps         atomic.Int64 // register operations inside those frames
	wireBytes      atomic.Int64 // compact-codec size of every frame
	readReqs       atomic.Int64 // ReadReq messages client→object
	writeReqs      atomic.Int64 // PWReq + WReq messages client→object
	readReplyBytes atomic.Int64 // compact-codec size of every ReadAckHist reply
}

// opRec is one operation as the harness and the tap saw it. Times are
// nanoseconds since tracer.t0; the tap-side fields are guarded by the
// key's keyTrace.mu.
type opRec struct {
	key        int32
	read       bool
	failed     bool
	start, end int64
	ts, seq    int64

	node      int8  // client endpoint serving the op: 0 unbound, 1 writer, 2+j reader j
	id1, id2  int64 // identifier of round 1 / round 2 (tsr for reads, ts for writes)
	acks1     int8
	acks2     int8
	lastReq1  int64 // last round-1 request accepted before the round's quorum
	lastAck1  int64 // (S−t)-th round-1 reply accepted
	firstReq2 int64
	lastAck2  int64
}

// keyTrace lists the operations in flight on one key: at most one write
// (the harness is the key's single writer) and clients−1 reads, or
// clients reads.
type keyTrace struct {
	mu       sync.Mutex
	inflight [clients]*opRec
}

func newTracer(w workload, names []string, capacity int) *tracer {
	t := &tracer{
		t0:     time.Now(),
		quorum: w.roundQuorum(),
		names:  names,
		keyIdx: make(map[string]int32, len(names)),
		keys:   make([]keyTrace, len(names)),
		recs:   make([]opRec, capacity),
	}
	for i, n := range names {
		t.keyIdx[n] = int32(i)
	}
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin registers an operation about to be issued. It returns nil when
// the tracer is nil or its record array is full.
func (t *tracer) begin(key int, read bool) *opRec {
	if t == nil {
		return nil
	}
	i := t.nrec.Add(1) - 1
	if i >= int64(len(t.recs)) {
		return nil
	}
	rec := &t.recs[i]
	rec.key, rec.read = int32(key), read
	kt := &t.keys[key]
	kt.mu.Lock()
	for j := range kt.inflight {
		if kt.inflight[j] == nil {
			kt.inflight[j] = rec
			break
		}
	}
	rec.start = t.now()
	kt.mu.Unlock()
	return rec
}

// end stamps the operation's return and takes it out of flight.
func (t *tracer) end(rec *opRec, ts, seq int64, err error) {
	if rec == nil {
		return
	}
	end := t.now()
	kt := &t.keys[rec.key]
	kt.mu.Lock()
	rec.end, rec.ts, rec.seq, rec.failed = end, ts, seq, err != nil
	for j := range kt.inflight {
		if kt.inflight[j] == rec {
			kt.inflight[j] = nil
		}
	}
	kt.mu.Unlock()
}

func (t *tracer) startMeasuring() {
	if t == nil {
		return
	}
	t.from = t.nrec.Load()
	t.measuring.Store(true)
}

func (t *tracer) stopMeasuring() {
	if t == nil {
		return
	}
	t.measuring.Store(false)
	t.to = min(t.nrec.Load(), int64(len(t.recs)))
}

var _ transport.Tap = (*tracer)(nil)

// OnMessage is the network-boundary tap.
func (t *tracer) OnMessage(from, to transport.NodeID, payload wire.Msg) {
	now := t.now()
	measuring := t.measuring.Load()
	size := 0
	if measuring {
		size = wire.CompactSize(payload)
		t.counts.frames.Add(1)
		if to.Kind == transport.KindObject {
			t.counts.reqFrames.Add(1)
		}
		t.counts.wireBytes.Add(int64(size))
		if !t.capFull.Load() {
			t.capture(to, payload)
		}
	}
	switch m := payload.(type) {
	case wire.RegOp:
		t.regOp(from, to, m, now, measuring, size)
	case wire.Batch:
		for _, inner := range m.Ops {
			if ro, ok := inner.(wire.RegOp); ok {
				t.regOp(from, to, ro, now, measuring, 0)
			}
		}
	}
}

// capture keeps clones of the first frames and of object capObject's
// request stream for the layer self-cost replays.
func (t *tracer) capture(to transport.NodeID, payload wire.Msg) {
	t.capMu.Lock()
	defer t.capMu.Unlock()
	if len(t.capFrames) < maxCapFrames {
		t.capFrames = append(t.capFrames, wire.Clone(payload))
	}
	if to.Kind == transport.KindObject && to.Index == capObject && len(t.capReqs) < maxCapReqs {
		add := func(m wire.Msg) {
			if ro, ok := m.(wire.RegOp); ok && len(t.capReqs) < maxCapReqs {
				t.capReqs = append(t.capReqs, capturedReq{ro.Reg, wire.Clone(ro.Msg)})
			}
		}
		if b, ok := payload.(wire.Batch); ok {
			for _, m := range b.Ops {
				add(m)
			}
		} else {
			add(payload)
		}
	}
	if len(t.capFrames) == maxCapFrames && len(t.capReqs) == maxCapReqs {
		t.capFull.Store(true)
	}
}

// nodeCode names a client endpoint within its shard.
func nodeCode(n transport.NodeID) int8 {
	if n.Kind == transport.KindWriter {
		return 1
	}
	return int8(2 + n.Index)
}

// regOp accounts one register operation; size is its compact-codec size
// when the caller already knows it (the operation was a frame of its
// own), else 0.
func (t *tracer) regOp(from, to transport.NodeID, ro wire.RegOp, now int64, measuring bool, size int) {
	if measuring {
		t.counts.regOps.Add(1)
	}
	key, ok := t.keyIdx[ro.Reg]
	if !ok {
		return
	}
	kt := &t.keys[key]
	switch m := ro.Msg.(type) {
	case wire.ReadReq:
		if measuring {
			t.counts.readReqs.Add(1)
		}
		kt.request(true, nodeCode(from), int(m.Round), int64(m.TSR), now, t.quorum)
	case wire.PWReq:
		if measuring {
			t.counts.writeReqs.Add(1)
		}
		kt.request(false, nodeCode(from), 1, int64(m.TS), now, t.quorum)
	case wire.WReq:
		// The write-back round is not awaited (pipelined writes): it is
		// counted, and its send time falls in the write's decide span.
		if measuring {
			t.counts.writeReqs.Add(1)
		}
	case wire.ReadAckHist:
		if measuring {
			if size == 0 {
				size = wire.CompactSize(ro)
			}
			t.counts.readReplyBytes.Add(int64(size))
		}
		kt.reply(true, nodeCode(to), int(m.Round), int64(m.TSR), now, t.quorum)
	case wire.PWAck:
		kt.reply(false, nodeCode(to), 1, int64(m.TS), now, t.quorum)
	}
}

// request stamps a round's request. The first round-1 request of an
// operation binds it to the client endpoint that sent it: the harness
// cannot know which reader slot a read will borrow. When two reads of
// one key are in flight unbound, the earlier-started one is bound
// first; a wrong guess swaps the two records' timestamps, which leaves
// every mean span unchanged.
func (kt *keyTrace) request(read bool, node int8, round int, id, now int64, quorum int) {
	kt.mu.Lock()
	defer kt.mu.Unlock()
	var unbound *opRec
	for _, rec := range kt.inflight {
		if rec == nil || rec.read != read {
			continue
		}
		if rec.node == node {
			switch {
			case round == 1 && rec.id1 == id:
				if int(rec.acks1) < quorum {
					rec.lastReq1 = now
				}
			case round == 2 && rec.id1 != 0:
				if rec.id2 == 0 {
					rec.id2, rec.firstReq2 = id, now
				}
			}
			return
		}
		if rec.node == 0 && round == 1 && (unbound == nil || rec.start < unbound.start) {
			unbound = rec
		}
	}
	if unbound != nil {
		unbound.node, unbound.id1, unbound.lastReq1 = node, id, now
	}
}

// reply stamps a round's reply up to the quorum-th.
func (kt *keyTrace) reply(read bool, node int8, round int, id, now int64, quorum int) {
	kt.mu.Lock()
	defer kt.mu.Unlock()
	for _, rec := range kt.inflight {
		if rec == nil || rec.read != read || rec.node != node {
			continue
		}
		switch {
		case round == 1 && rec.id1 == id && int(rec.acks1) < quorum:
			rec.acks1++
			rec.lastAck1 = now
		case round == 2 && rec.id2 == id && int(rec.acks2) < quorum:
			rec.acks2++
			rec.lastAck2 = now
		}
		return
	}
}

// spans is the mean decomposition of one op type's latency, in µs. The
// four parts are consecutive intervals of each operation, so they sum
// to its latency.
type spans struct {
	n          int
	mean       float64
	issue      float64 // call → last round-1 request accepted by the network
	rtt        float64 // → quorum-th reply accepted, summed over the awaited rounds
	extraRound float64 // round-1 quorum → first round-2 request (slow-path reads)
	decide     float64 // last awaited reply → return
}

// spanReport folds the measured phase's records into per-type spans and
// the share of latency that could not be attributed (operations whose
// round-1 traffic the tap never matched).
func (t *tracer) spanReport() (read, write spans, unattributedPct float64) {
	var total, lost float64
	acc := func(s *spans, rec *opRec) {
		lat := float64(rec.end - rec.start)
		total += lat
		if rec.lastReq1 == 0 || rec.lastAck1 == 0 {
			lost += lat
			return
		}
		lastAck := rec.lastAck1
		s.n++
		s.mean += lat
		s.issue += float64(rec.lastReq1 - rec.start)
		s.rtt += float64(rec.lastAck1 - rec.lastReq1)
		if rec.firstReq2 != 0 {
			if rec.lastAck2 == 0 {
				rec.lastAck2 = rec.firstReq2
			}
			s.extraRound += float64(rec.firstReq2 - rec.lastAck1)
			s.rtt += float64(rec.lastAck2 - rec.firstReq2)
			lastAck = rec.lastAck2
		}
		s.decide += float64(rec.end - lastAck)
	}
	for i := t.from; i < t.to; i++ {
		rec := &t.recs[i]
		if rec.failed || rec.end == 0 {
			continue
		}
		if rec.read {
			acc(&read, rec)
		} else {
			acc(&write, rec)
		}
	}
	for _, s := range []*spans{&read, &write} {
		if s.n == 0 {
			continue
		}
		d := float64(s.n) * 1e3
		s.mean, s.issue, s.rtt, s.extraRound, s.decide = s.mean/d, s.issue/d, s.rtt/d, s.extraRound/d, s.decide/d
	}
	if total > 0 {
		unattributedPct = 100 * lost / total
	}
	return read, write, unattributedPct
}

// crossCheck replays a sample of the traced run — every operation since
// Open on the lowest-numbered keys, until the sample holds wantOps —
// through internal/consistency.CheckRegularity, the repository's
// reference checker, so the inline check is not the only judge.
func (t *tracer) crossCheck(wantOps int) (checked int, err error) {
	n := min(t.nrec.Load(), int64(len(t.recs)))
	byKey := make(map[int32][]consistency.Op)
	for i := int64(0); i < n; i++ {
		rec := &t.recs[i]
		if rec.failed || rec.end == 0 {
			continue
		}
		kind := consistency.KindWrite
		if rec.read {
			kind = consistency.KindRead
		}
		val := binary.LittleEndian.AppendUint64(nil, uint64(rec.seq))
		byKey[rec.key] = append(byKey[rec.key], consistency.Op{
			Kind: kind, Start: rec.start, End: rec.end, TS: types.TS(rec.ts), Val: val,
		})
	}
	for key := int32(0); int(key) < len(t.keys) && checked < wantOps; key++ {
		ops := byKey[key]
		checked += len(ops)
		if v := consistency.CheckRegularity(ops); len(v) > 0 {
			return checked, fmt.Errorf("key %d: %d regularity violations, first: %v", key, len(v), v[0])
		}
	}
	return checked, nil
}
