package object

import (
	"sync"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

// Regular is the base object of the regular storage protocol (Fig. 5):
// it keeps the entire per-timestamp write history. With the §5.1
// optimization, read acks carry only the suffix of the history at or
// above the reader's cached timestamp, and — when garbage collection is
// enabled — entries below every reader's acknowledged cache timestamp
// are pruned.
type Regular struct {
	id types.ObjectID

	mu        sync.Mutex
	ts        types.TS
	history   types.History
	tsr       types.TSRVector
	readerLow []types.TS // highest CacheTS seen per reader (for GC)
	gc        bool
}

var _ transport.Handler = (*Regular)(nil)

// NewRegular returns a regular object with the Fig. 5 initial state:
// ts = 0, history[0] = ⟨pw0, ⟨pw0, inittsrarray⟩⟩, tsr[j] = 0.
// Garbage collection is off; enable it with EnableGC.
func NewRegular(id types.ObjectID, readers int) *Regular {
	return &Regular{
		id:        id,
		history:   types.NewHistory(),
		tsr:       types.NewTSRVector(readers),
		readerLow: make([]types.TS, readers),
	}
}

// ID returns the object's index.
func (s *Regular) ID() types.ObjectID { return s.id }

// EnableGC turns on history pruning below the minimum cached timestamp
// acknowledged by every reader. The paper notes the history assumption
// "might raise issues of storage exhaustion and needs careful garbage
// collection" (§1); this is that collector.
func (s *Regular) EnableGC() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gc = true
}

// Handle processes one client message per Fig. 5 (with the §5 prose
// indexing for the PW update — Fig. 5 line 6 indexes with the stale ts,
// which the prose corrects to ts′ and ts′−1).
func (s *Regular) Handle(_ transport.NodeID, req wire.Msg) (wire.Msg, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := req.(type) {
	case wire.PWReq:
		// upon PW⟨ts′,pw′,w′⟩: if ts′ > ts then
		//   history[ts′] := ⟨pw′, nil⟩; history[ts′−1] := ⟨w′.tsval, w′⟩
		// w′ is the complete tuple of the previous write, so it fills
		// the ts′−1 slot even at objects the previous W round skipped.
		if m.TS > s.ts {
			w := m.W
			s.history[m.TS] = types.HistEntry{PW: m.PW}
			s.history[m.TS-1] = types.HistEntry{PW: w.TSVal, W: &w}
			s.ts = m.TS
			return wire.PWAck{ObjectID: s.id, TS: s.ts, TSR: s.tsr.Clone()}, true
		}
		return nil, false
	case wire.WReq:
		// upon W⟨ts′,pw′,w′⟩: if ts′ ≥ ts then history[ts′] := ⟨pw′,w′⟩.
		if m.TS >= s.ts {
			s.ts = m.TS
			w := m.W
			s.history[m.TS] = types.HistEntry{PW: m.PW, W: &w}
			return wire.WAck{ObjectID: s.id, TS: s.ts}, true
		}
		return nil, false
	case wire.ReadReq:
		// upon READk⟨tsr′⟩ from r_j: if tsr′ > tsr[j], store it and ack
		// with the history (suffix from the reader's cached timestamp
		// onward under §5.1; CacheTS = 0 ships everything).
		j := m.Reader
		if int(j) < 0 || int(j) >= len(s.tsr) {
			return nil, false
		}
		// Read-repair: install a piggybacked dominant tuple exactly
		// like a W message (timestamp-dominant guard, so stale hints
		// are no-ops). The reader only attaches tuples vouched for by
		// b+1 identical round-1 replies — at least one honest object
		// stored that exact tuple — so a forged tuple cannot be
		// laundered through this path.
		if rep := m.Repair; rep != nil && rep.TSVal.TS >= s.ts {
			s.ts = rep.TSVal.TS
			s.history[rep.TSVal.TS] = types.HistEntry{PW: rep.TSVal, W: rep}
		}
		if m.TSR > s.tsr[j] {
			s.tsr[j] = m.TSR
			if m.CacheTS > s.readerLow[j] {
				s.readerLow[j] = m.CacheTS
			}
			if s.gc {
				s.pruneLocked()
			}
			return wire.ReadAckHist{
				ObjectID: s.id,
				Round:    m.Round,
				TSR:      s.tsr[j],
				History:  s.history.Suffix(m.CacheTS),
			}, true
		}
		return nil, false
	default:
		return nil, false
	}
}

// pruneLocked removes history entries strictly below the minimum cached
// timestamp across all readers, always retaining the newest entry.
func (s *Regular) pruneLocked() {
	if len(s.readerLow) == 0 {
		return
	}
	min := s.readerLow[0]
	for _, low := range s.readerLow[1:] {
		if low < min {
			min = low
		}
	}
	max := s.history.MaxTS()
	for ts := range s.history {
		if ts < min && ts < max {
			delete(s.history, ts)
		}
	}
}

// HistoryLen returns the number of retained history entries (E8 metric).
func (s *Regular) HistoryLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.history)
}

// RegularSnapshot is a copy of a regular object's full state.
type RegularSnapshot struct {
	TS      types.TS
	History types.History
	TSR     types.TSRVector
}

// Snapshot returns a deep copy of the object state.
func (s *Regular) Snapshot() RegularSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return RegularSnapshot{TS: s.ts, History: s.history.Clone(), TSR: s.tsr.Clone()}
}

// Restore overwrites the object state with the snapshot (amnesia
// catch-up install, adversary, and test use).
func (s *Regular) Restore(snap RegularSnapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ts = snap.TS
	s.history = snap.History.Clone()
	s.tsr = snap.TSR.Clone()
}

// Forget wipes the volatile state back to the Fig. 5 initial state —
// an amnesia restart (crash-recovery without stable storage). The GC
// flag survives: it is configuration, not state.
func (s *Regular) Forget() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ts = 0
	s.history = types.NewHistory()
	s.tsr = types.NewTSRVector(len(s.tsr))
	s.readerLow = make([]types.TS, len(s.readerLow))
}
