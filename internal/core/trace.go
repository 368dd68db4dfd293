package core

import (
	"fmt"
	"sync"

	"repro/internal/types"
)

// Tracer observes protocol progress inside a client: operation and
// round boundaries, accepted acknowledgements, and the decision.
// Implementations must be cheap; clients call them synchronously on
// the operation's critical path. The zero default is a no-op.
//
// Tracers exist for observability in embedding systems and for tests
// that assert protocol structure (rounds really start in order, acks
// really arrive in the claimed round) without reaching into client
// internals.
type Tracer interface {
	// OpStart fires when a WRITE or READ begins.
	OpStart(kind OpKind)
	// RoundStart fires when the client broadcasts round round (1 or 2).
	RoundStart(kind OpKind, round int)
	// AckAccepted fires for every acknowledgement the client absorbs.
	AckAccepted(kind OpKind, round int, from types.ObjectID)
	// Decided fires just before the operation returns, with the
	// operation's timestamp (the written ts, or the returned pair's).
	Decided(kind OpKind, ts types.TS)
	// Ext fires for the events the fast path, pipelining and repair
	// add. Its arguments are typed so that untraced clients format
	// nothing; ev.Detail renders them.
	Ext(kind OpKind, ev ExtEvent, round int, from types.ObjectID, ts types.TS)
}

// ExtEvent labels a protocol event introduced by the fast-path and
// pipelining optimizations, outside the four Fig. 2–6 callbacks.
type ExtEvent int

// Extended events.
const (
	// EvFastRead: a READ decided after round 1 and skipped round 2.
	EvFastRead ExtEvent = iota + 1
	// EvPipelinedAck: an acknowledgement absorbed during op N's PW
	// round confirmed the write-back of the still-pending op N−1.
	EvPipelinedAck
	// EvRepair: a slow-path round-2 READ broadcast piggybacked a
	// repair hint (the dominant complete tuple from round 1).
	EvRepair
)

// String renders the extended event.
func (e ExtEvent) String() string {
	switch e {
	case EvFastRead:
		return "fast-read"
	case EvPipelinedAck:
		return "pipelined-ack"
	case EvRepair:
		return "repair"
	}
	return "ext?"
}

// Detail renders an extended event's arguments: "obj<from>@pw" or
// "obj<from>@w" for EvPipelinedAck (the confirming ack answered round
// 1, PW, or round 2, W), "ts=<ts>" for EvRepair (the hint's
// timestamp), and "" for EvFastRead.
func (e ExtEvent) Detail(round int, from types.ObjectID, ts types.TS) string {
	switch e {
	case EvPipelinedAck:
		if round == 1 {
			return fmt.Sprintf("obj%d@pw", from)
		}
		return fmt.Sprintf("obj%d@w", from)
	case EvRepair:
		return fmt.Sprintf("ts=%d", ts)
	}
	return ""
}

// nopTracer is the default.
type nopTracer struct{}

func (nopTracer) OpStart(OpKind)                                      {}
func (nopTracer) RoundStart(OpKind, int)                              {}
func (nopTracer) AckAccepted(OpKind, int, types.ObjectID)             {}
func (nopTracer) Decided(OpKind, types.TS)                            {}
func (nopTracer) Ext(OpKind, ExtEvent, int, types.ObjectID, types.TS) {}

// TraceRecorder is a Tracer that accumulates events as strings, for
// tests and debugging dumps. Safe for concurrent use.
type TraceRecorder struct {
	mu     sync.Mutex
	events []string
}

var _ Tracer = (*TraceRecorder)(nil)

func (tr *TraceRecorder) add(e string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.events = append(tr.events, e)
}

// OpStart records the event.
func (tr *TraceRecorder) OpStart(kind OpKind) { tr.add(fmt.Sprintf("%s/start", kind)) }

// RoundStart records the event.
func (tr *TraceRecorder) RoundStart(kind OpKind, round int) {
	tr.add(fmt.Sprintf("%s/round%d", kind, round))
}

// AckAccepted records the event.
func (tr *TraceRecorder) AckAccepted(kind OpKind, round int, from types.ObjectID) {
	tr.add(fmt.Sprintf("%s/ack%d/obj%d", kind, round, from))
}

// Decided records the event.
func (tr *TraceRecorder) Decided(kind OpKind, ts types.TS) {
	tr.add(fmt.Sprintf("%s/decided@%d", kind, ts))
}

// Ext records an extended (fast-path/pipelining/repair) event.
func (tr *TraceRecorder) Ext(kind OpKind, ev ExtEvent, round int, from types.ObjectID, ts types.TS) {
	detail := ev.Detail(round, from, ts)
	if detail == "" {
		tr.add(fmt.Sprintf("%s/%s", kind, ev))
		return
	}
	tr.add(fmt.Sprintf("%s/%s/%s", kind, ev, detail))
}

// Events returns a copy of the recorded event strings.
func (tr *TraceRecorder) Events() []string {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	out := make([]string, len(tr.events))
	copy(out, tr.events)
	return out
}

// Reset clears the recording.
func (tr *TraceRecorder) Reset() {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.events = nil
}
