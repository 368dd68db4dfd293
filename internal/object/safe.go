// Package object implements the correct base storage objects of the
// paper: the safe-protocol object of Fig. 3 and the history-keeping
// regular-protocol object of Fig. 5, including the §5.1 history-suffix
// optimization and garbage collection.
//
// Objects are passive atomic read-modify-write automata: each incoming
// message is processed atomically and produces at most one reply. The
// reply-inside-the-guard structure of the pseudo-code is preserved: an
// object that rejects a stale timestamp sends nothing, and the sender
// (which in a correct run never sends stale timestamps) simply sees one
// fewer reply.
package object

import (
	"sync"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Safe is the base object of the safe storage protocol (Fig. 3). Its
// state is the write timestamp ts, the pre-write pair pw, the complete
// tuple w, and the per-reader control timestamps tsr[1..R].
type Safe struct {
	id types.ObjectID

	mu  sync.Mutex
	ts  types.TS
	pw  types.TSVal
	w   types.WTuple
	tsr types.TSRVector
}

var _ transport.Handler = (*Safe)(nil)

// NewSafe returns a safe object with the Fig. 3 initial state:
// ts = 0, pw = ⟨0,⊥⟩, w = ⟨pw, inittsrarray⟩, tsr[j] = 0 for all j.
func NewSafe(id types.ObjectID, readers int) *Safe {
	return &Safe{
		id:  id,
		pw:  types.InitTSVal(),
		w:   types.InitWTuple(),
		tsr: types.NewTSRVector(readers),
	}
}

// ID returns the object's index.
func (s *Safe) ID() types.ObjectID { return s.id }

// Handle processes one client message per Fig. 3.
func (s *Safe) Handle(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := req.(type) {
	case wire.PWReq:
		// upon PW⟨ts′,pw′,w′⟩: if ts′ > ts then adopt and ack with tsr.
		if m.TS > s.ts {
			s.ts = m.TS
			s.pw, s.w = m.PW, m.W
			return wire.PWAck{ObjectID: s.id, TS: s.ts, TSR: s.tsr.Clone()}, true
		}
		return nil, false
	case wire.WReq:
		// upon W⟨ts′,pw′,w′⟩: if ts′ ≥ ts then adopt and ack.
		if m.TS >= s.ts {
			s.ts = m.TS
			s.pw, s.w = m.PW, m.W
			return wire.WAck{ObjectID: s.id, TS: s.ts}, true
		}
		return nil, false
	case wire.ReadReq:
		// upon READk⟨tsr′⟩ from r_j: if tsr′ > tsr[j] then store it and
		// ack with the current pw and w.
		j := m.Reader
		if int(j) < 0 || int(j) >= len(s.tsr) {
			return nil, false
		}
		// Read-repair: a round-2 request may piggyback the dominant
		// complete tuple the reader saw in round 1. Install it under
		// the same timestamp-dominance guard as a W message (clients
		// are correct in the model, and the reader only forwards
		// tuples vouched for by b+1 identical replies, so the hint is
		// genuine). Applied independently of the tsr guard below: the
		// repair is valid even when this particular READ message is a
		// duplicate.
		if rep := m.Repair; rep != nil && rep.TSVal.TS >= s.ts {
			s.ts = rep.TSVal.TS
			s.pw, s.w = rep.TSVal, *rep
		}
		if m.TSR > s.tsr[j] {
			s.tsr[j] = m.TSR
			return wire.ReadAck{
				ObjectID: s.id,
				Round:    m.Round,
				TSR:      s.tsr[j],
				PW:       s.pw,
				W:        s.w,
			}, true
		}
		return nil, false
	default:
		return nil, false
	}
}

// SafeSnapshot is a copy of a safe object's full state, used by tests
// and by the lower-bound adversary (which forges such states).
type SafeSnapshot struct {
	TS  types.TS
	PW  types.TSVal
	W   types.WTuple
	TSR types.TSRVector
}

// Snapshot returns a deep copy of the object state.
func (s *Safe) Snapshot() SafeSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SafeSnapshot{TS: s.ts, PW: s.pw.Clone(), W: s.w.Clone(), TSR: s.tsr.Clone()}
}

// Restore overwrites the object state with the snapshot. Only test
// harnesses and adversaries use it; correct objects never restore.
func (s *Safe) Restore(snap SafeSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ts = snap.TS
	s.pw = snap.PW.Clone()
	s.w = snap.W.Clone()
	s.tsr = snap.TSR.Clone()
}
