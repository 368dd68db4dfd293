package core

// TestReadStateGolden drives both read states through seeded READs that
// stay within the fault model and pins what absorb, round1Done,
// fastDecide, repairHint and decide report after every delivered
// message. Run with -update to rewrite testdata/readstate.golden.
//
// One READ per line. Honest objects are real object.Safe/object.Regular
// instances that received a random subset of a single writer's
// PW/W messages, in writer order, so some lag and some hold a
// pre-write in flight; write C's W reached a quorum of S−t objects.
// At most b objects are Byzantine and forge from their honest state; at
// most t objects (Byzantine ones included) stay silent. The reader is
// driven the way readOp drives it: round 1 until round1Done, then the
// fast decision when the fast path is on, then round 2 (late round-1
// replies mixed in) until decide holds. Rejected messages (duplicates,
// stale control timestamps, forged senders) are mixed in as well.
//
// Each step is the absorb result (+/-) followed by whichever outputs
// changed: Q/q (round1Done), f (fastDecide), h (repairHint), d (decide),
// "." for "none". "|" marks the start of round 2.

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/object"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// goldenReads is the number of seeded READs per read state.
const goldenReads = 2000

func TestReadStateGolden(t *testing.T) {
	var b strings.Builder
	for _, regular := range []bool{false, true} {
		for seed := int64(0); seed < goldenReads; seed++ {
			b.WriteString(goldenRead(seed, regular))
			b.WriteByte('\n')
		}
	}
	path := filepath.Join("testdata", "readstate.golden")
	if f := flag.Lookup("update"); f != nil && f.Value.String() == "true" {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			t.Fatalf("%s line %d:\n want %s\n  got %s", path, i+1, wl[i], gl[i])
		}
	}
	t.Fatalf("%s: %d lines, generated %d", path, len(wl), len(gl))
}

// goldenGen is one seeded READ scenario.
type goldenGen struct {
	rng     *rand.Rand
	cfg     quorum.Config
	j       types.ReaderID
	regular bool
	tsrFR   types.ReaderTS
	cacheTS types.TS
	tuples  []types.WTuple // tuples[k] is write k's genuine tuple (k = 0: w0)
	next    int            // index in msgs of the first undelivered writer message
	msgs    []wire.Msg     // the writer's PW/W messages, in order
	byz     []bool
	mute    []bool
	safe    []*object.Safe
	reg     []*object.Regular
}

func goldenRead(seed int64, regular bool) string {
	rng := rand.New(rand.NewSource(seed))
	tb := [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}}[rng.Intn(4)]
	cfg := quorum.Optimal(tb[0], tb[1], 1+rng.Intn(2))
	g := &goldenGen{
		rng: rng, cfg: cfg, regular: regular,
		j:     types.ReaderID(rng.Intn(cfg.R)),
		tsrFR: types.ReaderTS(1 + 2*rng.Intn(3)),
		byz:   make([]bool, cfg.S),
		mute:  make([]bool, cfg.S),
	}
	fast := rng.Intn(2) == 0
	opt := regular && rng.Intn(2) == 0

	// The writer: C completed writes, then maybe write C+1 in its PW or
	// its W phase.
	c := rng.Intn(5)
	g.tuples = []types.WTuple{types.InitWTuple()}
	for k := 1; k <= c+4; k++ {
		g.tuples = append(g.tuples, g.genuine(types.TS(k), k > c))
	}
	for k := 1; k <= c; k++ {
		g.msgs = append(g.msgs, g.pw(k), g.w(k))
	}
	inflight := rng.Intn(4) // 0, 1: none; 2: PW phase; 3: W phase
	if inflight >= 2 {
		g.msgs = append(g.msgs, g.pw(c+1))
	}
	if inflight == 3 {
		g.msgs = append(g.msgs, g.w(c+1))
	}
	if opt {
		g.cacheTS = types.TS(rng.Intn(c + 1))
	}

	// Faults: at most b Byzantine objects, at most t faulty in all.
	faulty := rng.Intn(cfg.B + 1)
	for _, i := range rng.Perm(cfg.S)[:faulty] {
		g.byz[i] = true
	}
	for _, i := range rng.Perm(cfg.S)[:rng.Intn(cfg.T+1)] {
		if g.byz[i] || faulty < cfg.T {
			if !g.byz[i] {
				faulty++
			}
			g.mute[i] = true
		}
	}

	// Honest state: write C's W reached a quorum of S−t objects, write
	// C+1's W phase needs S−t PW acks; everything else arrives with a
	// per-object probability.
	quorumC := rng.Perm(cfg.S)[:cfg.RoundQuorum()]
	quorumPW := rng.Perm(cfg.S)[:cfg.RoundQuorum()]
	for i := 0; i < cfg.S; i++ {
		id := types.ObjectID(i)
		if regular {
			g.reg = append(g.reg, object.NewRegular(id, cfg.R))
		} else {
			g.safe = append(g.safe, object.NewSafe(id, cfg.R))
		}
		p := []float64{1, 0.8, 0.5}[rng.Intn(3)]
		for m, msg := range g.msgs {
			forced := (c > 0 && m == 2*c-1 && contains(quorumC, i)) ||
				(inflight == 3 && m == 2*c && contains(quorumPW, i))
			if forced || rng.Float64() < p {
				g.deliver(i, msg)
			}
		}
	}
	g.next = len(g.msgs)

	var s readState
	if regular {
		rs := newRegularReadState(cfg, g.j)
		rs.optimized = opt
		s = rs
	} else {
		s = newSafeReadState(cfg, g.j)
	}
	base := s.base()
	base.fast, base.tsrFR = fast, g.tsrFR

	var out strings.Builder
	fmt.Fprintf(&out, "%s %04d t%d b%d R%d j%d fast%d opt%d byz%s mute%s C%d in%d:",
		map[bool]string{false: "safe", true: "regular"}[regular], seed,
		cfg.T, cfg.B, cfg.R, g.j, b2i(fast), b2i(opt), members(g.byz), members(g.mute), c, inflight)
	prev := [4]string{"q", "f.", "h.", "d."}
	step := func(m transport.Message) bool {
		ok := s.absorb(m)
		out.WriteString(" ")
		out.WriteString(map[bool]string{false: "-", true: "+"}[ok])
		cur := [4]string{"q", "f" + tvOrNone(s.fastDecide()), "h" + tupleOrNone(s.repairHint()), "d" + tvOrNone(s.decide())}
		if round1Done(s) {
			cur[0] = "Q"
		}
		for k := range cur {
			if cur[k] != prev[k] {
				out.WriteString(cur[k])
			}
		}
		prev = cur
		return ok
	}

	// Round 1.
	queue := g.replies(wire.Round1, g.tsrFR)
	for len(queue) > 0 && !round1Done(s) {
		m := queue[0]
		queue = queue[1:]
		step(m)
		if g.rng.Intn(6) == 0 {
			step(g.noise(m, g.tsrFR))
		}
	}
	if !round1Done(s) {
		return out.String()
	}
	if fast {
		if _, ok := s.fastDecide(); ok {
			return out.String()
		}
	}

	// Round 2: the writer may make progress first.
	out.WriteString(" |")
	base.tsrSR = g.tsrFR + 1
	if _, ok := s.decide(); ok {
		return out.String()
	}
	g.progress(c, inflight)
	queue = append(queue, g.replies(wire.Round2, base.tsrSR)...)
	g.rng.Shuffle(len(queue), func(a, b int) { queue[a], queue[b] = queue[b], queue[a] })
	for _, m := range queue {
		ok := step(m)
		if g.rng.Intn(6) == 0 {
			step(g.noise(m, base.tsrSR))
		}
		if ok {
			if _, done := s.decide(); done {
				break
			}
		}
	}
	return out.String()
}

// genuine returns write k's tuple with the matrix its PW round gathers:
// one row for each of S−t objects, this reader's column at most the
// control timestamp it last issued (tsrFR itself for a write that may
// overlap this READ).
func (g *goldenGen) genuine(k types.TS, overlaps bool) types.WTuple {
	m := types.NewTSRMatrix()
	for _, i := range g.rng.Perm(g.cfg.S)[:g.cfg.RoundQuorum()] {
		vec := types.NewTSRVector(g.cfg.R)
		for r := range vec {
			vec[r] = types.ReaderTS(g.rng.Intn(10))
		}
		top := int(g.tsrFR) - 1
		if overlaps {
			top++
		}
		vec[g.j] = types.ReaderTS(g.rng.Intn(top + 1))
		m[types.ObjectID(i)] = vec
	}
	return types.WTuple{TSVal: types.TSVal{TS: k, Val: types.Value(fmt.Sprintf("v%d", k))}, TSR: m}
}

func (g *goldenGen) pw(k int) wire.Msg {
	return wire.PWReq{TS: types.TS(k), PW: g.tuples[k].TSVal.Clone(), W: g.tuples[k-1].Clone()}
}

func (g *goldenGen) w(k int) wire.Msg {
	return wire.WReq{TS: types.TS(k), PW: g.tuples[k].TSVal.Clone(), W: g.tuples[k].Clone()}
}

func (g *goldenGen) deliver(i int, msg wire.Msg) {
	if g.regular {
		g.reg[i].Handle(transport.Writer(), msg)
	} else {
		g.safe[i].Handle(transport.Writer(), msg)
	}
}

// progress lets the writer go on between the READ's rounds: finish the
// write in flight or start the next one, each new message reaching each
// object with probability 1/2.
func (g *goldenGen) progress(c, inflight int) {
	switch {
	case g.rng.Intn(2) == 0:
		return
	case inflight == 2:
		g.msgs = append(g.msgs, g.w(c+1))
	case inflight == 3:
		g.msgs = append(g.msgs, g.pw(c+2))
	default:
		g.msgs = append(g.msgs, g.pw(c+1))
	}
	for i := 0; i < g.cfg.S; i++ {
		for _, msg := range g.msgs[g.next:] {
			if g.rng.Intn(2) == 0 {
				g.deliver(i, msg)
			}
		}
	}
	g.next = len(g.msgs)
}

// replies returns every non-silent object's acknowledgement of the
// round's READ request, in a random order.
func (g *goldenGen) replies(round wire.Round, tsr types.ReaderTS) []transport.Message {
	req := wire.ReadReq{Round: round, Reader: g.j, TSR: tsr, CacheTS: g.cacheTS}
	var out []transport.Message
	for _, i := range g.rng.Perm(g.cfg.S) {
		if g.mute[i] {
			continue
		}
		var ack wire.Msg
		if g.regular {
			ack, _ = g.reg[i].Handle(transport.Reader(g.j), req)
		} else {
			ack, _ = g.safe[i].Handle(transport.Reader(g.j), req)
		}
		if g.byz[i] {
			if g.rng.Intn(5) == 0 {
				continue // a Byzantine object may skip a round
			}
			ack = g.forge(ack)
		}
		out = append(out, transport.Message{From: transport.Object(types.ObjectID(i)), Payload: ack})
	}
	return out
}

// forge rewrites a Byzantine object's honest acknowledgement.
func (g *goldenGen) forge(ack wire.Msg) wire.Msg {
	top := len(g.msgs)/2 + 1 // highest timestamp the writer may have used
	k := types.TS(g.rng.Intn(top + 1))
	accusing := func(w types.WTuple) types.WTuple {
		w = w.Clone()
		vec := types.NewTSRVector(g.cfg.R)
		vec[g.j] = g.tsrFR + 1 + types.ReaderTS(g.rng.Intn(3))
		w.TSR[types.ObjectID(g.rng.Intn(g.cfg.S))] = vec
		return w
	}
	other := types.WTuple{TSVal: types.TSVal{TS: k, Val: types.Value(fmt.Sprintf("x%d", k))}, TSR: g.tuples[k].TSR.Clone()}
	hi := types.TS(top + 1 + g.rng.Intn(3))
	high := types.WTuple{TSVal: types.TSVal{TS: hi, Val: types.Value("h")}, TSR: types.NewTSRMatrix()}

	if a, ok := ack.(wire.ReadAck); ok {
		switch g.rng.Intn(4) {
		case 0: // a genuine pair with an accusing matrix
			a.W = accusing(g.tuples[k])
			a.PW = a.W.TSVal.Clone()
		case 1: // a genuine timestamp with another value
			a.W = other
			if g.rng.Intn(2) == 0 {
				a.PW = other.TSVal.Clone()
			}
		case 2: // a genuine tuple verbatim, maybe a stale one
			a.W = g.tuples[k].Clone()
			a.PW = a.W.TSVal.Clone()
		case 3: // a high timestamp
			a.W = high
			a.PW = high.TSVal.Clone()
			if g.rng.Intn(2) == 0 {
				a.PW.TS++
			}
		}
		return a
	}

	a := ack.(wire.ReadAckHist)
	h := a.History.Clone()
	put := func(ts types.TS, w types.WTuple) { h[ts] = types.HistEntry{PW: w.TSVal.Clone(), W: &w} }
	keys := h.Timestamps()
	switch g.rng.Intn(6) {
	case 0: // a genuine entry with an accusing matrix
		put(k, accusing(g.tuples[k]))
	case 1: // a genuine timestamp with another value
		put(k, other)
	case 2: // a genuine tuple verbatim
		put(k, g.tuples[k].Clone())
	case 3: // a high timestamp
		put(hi, high)
	case 4: // an entry under another timestamp's key
		if len(keys) > 0 {
			from := keys[g.rng.Intn(len(keys))]
			to := types.TS(g.rng.Intn(top + 2))
			h[to] = h[from]
			if g.rng.Intn(2) == 0 && to != from {
				delete(h, from)
			}
		}
	case 5: // dropped entries
		for _, ts := range keys {
			if g.rng.Intn(2) == 0 {
				delete(h, ts)
			}
		}
	}
	a.History = h
	return a
}

// noise returns a message the read state must reject: a duplicate of m,
// m with a stale control timestamp, or m from a sender it does not
// claim.
func (g *goldenGen) noise(m transport.Message, tsr types.ReaderTS) transport.Message {
	switch g.rng.Intn(3) {
	case 0:
		return m
	case 1:
		switch a := m.Payload.(type) {
		case wire.ReadAck:
			a.TSR = tsr - 2
			m.Payload = a
		case wire.ReadAckHist:
			a.TSR = tsr - 2
			m.Payload = a
		}
		return m
	default:
		m.From = transport.Object(types.ObjectID((m.From.Index + 1) % g.cfg.S))
		return m
	}
}

func contains(ids []int, i int) bool {
	for _, id := range ids {
		if id == i {
			return true
		}
	}
	return false
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

func members(set []bool) string {
	var b strings.Builder
	b.WriteByte('[')
	for i, in := range set {
		if in {
			fmt.Fprintf(&b, "%d", i)
		}
	}
	b.WriteByte(']')
	return b.String()
}

func tvString(tv types.TSVal) string {
	if tv.Val.IsBottom() {
		return fmt.Sprintf("%d:⊥", tv.TS)
	}
	return fmt.Sprintf("%d:%s", tv.TS, tv.Val)
}

func tvOrNone(tv types.TSVal, ok bool) string {
	if !ok {
		return "."
	}
	return tvString(tv)
}

// tupleOrNone renders a tuple with its matrix rows in object order.
func tupleOrNone(w types.WTuple, ok bool) string {
	if !ok {
		return "."
	}
	rows := make([]types.ObjectID, 0, len(w.TSR))
	for id, vec := range w.TSR {
		if vec != nil {
			rows = append(rows, id)
		}
	}
	sort.Slice(rows, func(a, b int) bool { return rows[a] < rows[b] })
	var b strings.Builder
	b.WriteString(tvString(w.TSVal))
	b.WriteByte('{')
	for n, id := range rows {
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d=", id)
		for r, ts := range w.TSR[id] {
			if r > 0 {
				b.WriteByte('.')
			}
			fmt.Fprintf(&b, "%d", ts)
		}
	}
	b.WriteByte('}')
	return b.String()
}
