package core_test

// Isolation tests for the immutability contract of package types:
// protocol values are shared, not copied, so what keeps a Byzantine
// object or a careless caller away from honest state is the one copy
// per hop (memnet's wire.Clone here) and the two copies at the public
// API (the writer's copy of its input, the reader's copy of its
// result). Run under -race, these tests also catch any mutation that
// a missing copy would let race with an honest read.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// scribbled is what a scribbler writes into reader timestamps.
const scribbled types.ReaderTS = 1 << 40

// scribbler breaks the contract on purpose. On each request it first
// overwrites the value bytes and the timestamp matrices of the reply it
// sent before and, with requests set, of the request it received
// before, then serves the request with h. It sends a copy of h's reply,
// so scribbling on what it sent leaves h's state intact; scribbling on
// a request corrupts h too, which makes the object Byzantine.
type scribbler struct {
	mu       sync.Mutex
	h        transport.Handler
	requests bool
	lastReq  wire.Msg
	lastSent wire.Msg
}

func (s *scribbler) Handle(from transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	scribble(s.lastSent)
	if s.requests {
		scribble(s.lastReq)
		s.lastReq = req
	}
	reply, ok := s.h.Handle(from, req)
	if !ok {
		return nil, false
	}
	s.lastSent = wire.Clone(reply)
	return s.lastSent, true
}

func scribble(m wire.Msg) {
	switch m := m.(type) {
	case wire.PWReq:
		scribbleVal(m.PW.Val)
		scribbleTuple(m.W)
	case wire.WReq:
		scribbleVal(m.PW.Val)
		scribbleTuple(m.W)
	case wire.ReadReq:
		if m.Repair != nil {
			scribbleTuple(*m.Repair)
		}
	case wire.PWAck:
		for i := range m.TSR {
			m.TSR[i] = scribbled
		}
	case wire.ReadAck:
		scribbleVal(m.PW.Val)
		scribbleTuple(m.W)
	case wire.ReadAckHist:
		for _, e := range m.History {
			scribbleVal(e.PW.Val)
			if e.W != nil {
				scribbleTuple(*e.W)
			}
		}
	}
}

func scribbleVal(v types.Value) {
	for i := range v {
		v[i] = 'z'
	}
}

// scribbleTuple rewrites w's value and every row of its matrix, and
// adds a row that accuses every reader.
func scribbleTuple(w types.WTuple) {
	scribbleVal(w.TSVal.Val)
	for _, vec := range w.TSR {
		for i := range vec {
			vec[i] = scribbled
		}
	}
	if w.TSR != nil {
		w.TSR[99] = types.TSRVector{scribbled}
	}
}

// TestScribbledMessagesDoNotReachHonestState wraps every object of an
// S = 4 cluster in a scribbler; object 3 also scribbles the requests it
// received, so it is the one Byzantine object t = b = 1 allows. With
// the fast path off every READ takes two rounds, and each object
// scribbles its round-1 reply before it answers round 2: the reader
// decides on round-1 evidence after the scribbling. The copy memnet
// makes per hop must keep every decision, and every write's matrix,
// exactly as in an honest run.
func TestScribbledMessagesDoNotReachHonestState(t *testing.T) {
	for _, regular := range []bool{false, true} {
		name := map[bool]string{false: "safe", true: "regular"}[regular]
		t.Run(name, func(t *testing.T) {
			byz := make(map[int]transport.Handler)
			for i := 0; i < 4; i++ {
				var h transport.Handler = object.NewSafe(types.ObjectID(i), 1)
				if regular {
					h = object.NewRegular(types.ObjectID(i), 1)
				}
				byz[i] = &scribbler{h: h, requests: i == 3}
			}
			var c *cluster
			var read func() (types.TSVal, core.OpStats)
			if regular {
				c = newRegularCluster(t, 1, 1, 1, byz, false)
				r := c.regularReader(0, true)
				read = func() (types.TSVal, core.OpStats) {
					got, err := r.Read(ctx(t))
					if err != nil {
						t.Fatal(err)
					}
					return got, r.LastStats()
				}
			} else {
				c = newSafeCluster(t, 1, 1, 1, byz)
				r := c.safeReader(0)
				read = func() (types.TSVal, core.OpStats) {
					got, err := r.Read(ctx(t))
					if err != nil {
						t.Fatal(err)
					}
					return got, r.LastStats()
				}
			}
			w := c.writer()
			for i, v := range []string{"v1", "v2", "v3", "v4"} {
				if err := w.Write(ctx(t), types.Value(v)); err != nil {
					t.Fatal(err)
				}
				got, st := read()
				want := types.TSVal{TS: types.TS(i + 1), Val: types.Value(v)}
				if !got.Equal(want) || st.Rounds != 2 || st.FastPath {
					t.Fatalf("read after write %s = %v in %d rounds (fast %v), want %v in 2",
						v, got, st.Rounds, st.FastPath, want)
				}
			}
		})
	}
}

// TestCallerBuffersAreIsolated mutates the Value a caller passed to
// Write while the write's messages to object 3 are still held in
// transit, and the Value a READ returned. Neither may reach the objects
// or the regular reader's §5.1 cache: the object installs v1, and the
// next READs still return ⟨1,v1⟩ on the single-round fast path, which
// needs identical replies from objects 1, 2 and 3.
func TestCallerBuffersAreIsolated(t *testing.T) {
	c := newRegularCluster(t, 1, 1, 1, nil, false)
	w := c.writer()
	r := c.regularReader(0, true)
	r.SetFastPath(true)
	want := types.TSVal{TS: 1, Val: types.Value("v1")}

	c.net.Block(transport.Writer(), transport.Object(3))
	buf := types.Value("v1")
	if err := w.Write(ctx(t), buf); err != nil {
		t.Fatal(err)
	}
	scribbleVal(buf)
	c.net.Unblock(transport.Writer(), transport.Object(3))
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := c.reg[3].Snapshot()
		if e, ok := snap.History[1]; ok && e.W != nil {
			if !e.PW.Equal(want) || !e.W.TSVal.Equal(want) {
				t.Fatalf("object 3 installed %v, want %v", e, want)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("object 3 never received write 1")
		}
		time.Sleep(time.Millisecond)
	}

	c.net.Block(transport.Reader(0), transport.Object(0))
	for i := 0; i < 2; i++ {
		got, err := r.Read(ctx(t))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) || !r.LastStats().FastPath {
			t.Fatalf("read %d = %v (fast %v), want %v on the fast path", i, got, r.LastStats().FastPath, want)
		}
		scribbleVal(got.Val)
	}
}
