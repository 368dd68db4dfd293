package store

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/types"
)

// telemetry is a deployment's optional observability state: one metrics
// registry (mounted with per-shard scopes by buildShard) and one op
// tracer shared by every layer. nil when Options.Telemetry is unset —
// every consumer threads it nil-safely, so the telemetry-off hot path
// is byte-for-byte the old one.
type telemetry struct {
	reg    *obs.Registry
	tracer *obs.Tracer // nil when tracing is disabled (TraceCapacity < 0)
	clock  obs.Clock
}

// newTelemetry builds the registry and tracer per o (nil = disabled).
func newTelemetry(o *obs.Options) *telemetry {
	if o == nil {
		return nil
	}
	opts := o.WithDefaults()
	t := &telemetry{reg: obs.NewRegistry(), clock: opts.Clock}
	if o.TraceCapacity >= 0 {
		t.tracer = obs.NewTracer(opts.TraceCapacity, opts.Clock)
	}
	return t
}

// snapshot captures the registry (empty when telemetry is off).
func (t *telemetry) snapshot() obs.Snapshot {
	if t == nil {
		return (*obs.Registry)(nil).Snapshot()
	}
	return t.reg.Snapshot()
}

// Telemetry returns a point-in-time snapshot of the metrics registry:
// per-shard op counters and latency histograms plus the flow, fault,
// recovery, and membership instruments, keyed by hierarchical path
// (store/shard=0/flow/pushbacks). Empty when the store was opened
// without Options.Telemetry.
func (s *Store) Telemetry() obs.Snapshot { return s.tel.snapshot() }

// Trace returns the live op-trace events, oldest first (nil without
// telemetry). The ring is bounded: a long soak keeps the newest events
// and counts the rest as evicted.
func (s *Store) Trace() []obs.Event {
	if s.tel == nil {
		return nil
	}
	return s.tel.tracer.Events()
}

// TraceOp returns the recorded lifecycle of one operation — the op IDs
// appear on Trace events — oldest first.
func (s *Store) TraceOp(op uint64) []obs.Event {
	if s.tel == nil {
		return nil
	}
	return s.tel.tracer.OpEvents(op)
}

// TelemetryExport bundles the metrics snapshot with the op trace — the
// JSON artifact the chaos harness writes and cmd/storetop renders.
func (s *Store) TelemetryExport() obs.Export {
	return obs.Export{Metrics: s.Telemetry(), Trace: s.Trace()}
}

// NewFlightRecorder arms an anomaly flight recorder over the store's
// metrics registry and op tracer (nil without telemetry — every
// recorder method is nil-safe, so callers thread it unconditionally).
// Each Trigger freezes the registry and trace ring into a
// self-contained dump that cmd/storetop -flight renders offline.
func (s *Store) NewFlightRecorder() *obs.FlightRecorder {
	if s.tel == nil {
		return nil
	}
	return obs.NewFlightRecorder(s.tel.reg, s.tel.tracer, s.tel.clock)
}

// coreTracer adapts one register client's core.Tracer callbacks onto
// the shared obs tracer, labeling every event with the operation ID the
// store bound before starting the op. The op field is written only by
// the goroutine that owns the client for the operation's duration (the
// register writer's mutex, or a borrowed reader slot), which is also
// the goroutine core calls the tracer from.
type coreTracer struct {
	tr    *obs.Tracer
	key   string
	shard int
	op    uint64
}

var _ core.Tracer = (*coreTracer)(nil)

// OpStart implements core.Tracer.
func (t *coreTracer) OpStart(kind core.OpKind) {
	t.tr.Record(obs.Event{Op: t.op, Kind: obs.EvOpBegin, Key: t.key, Shard: t.shard, Member: -1, Detail: kind.String()})
}

// RoundStart implements core.Tracer.
func (t *coreTracer) RoundStart(kind core.OpKind, round int) {
	t.tr.Record(obs.Event{Op: t.op, Kind: obs.EvRound, Key: t.key, Shard: t.shard, Member: -1, Round: round, Detail: roundLabel(kind, round)})
}

// AckAccepted implements core.Tracer.
func (t *coreTracer) AckAccepted(kind core.OpKind, round int, from types.ObjectID) {
	t.tr.Record(obs.Event{Op: t.op, Kind: obs.EvReply, Key: t.key, Shard: t.shard, Member: int(from), Round: round})
}

// Decided implements core.Tracer.
func (t *coreTracer) Decided(kind core.OpKind, ts types.TS) {
	t.tr.Record(obs.Event{Op: t.op, Kind: obs.EvOpEnd, Key: t.key, Shard: t.shard, Member: -1, Detail: fmt.Sprintf("%s ts=%d", kind, ts)})
}

// Ext implements core.Tracer: fast-read decisions, pipelined
// write-back certifications, and read-repair hints appear in the op
// trace under their own kinds.
func (t *coreTracer) Ext(kind core.OpKind, ev core.ExtEvent, round int, from types.ObjectID, ts types.TS) {
	var k obs.EventKind
	switch ev {
	case core.EvFastRead:
		k = obs.EvFastRead
	case core.EvPipelinedAck:
		k = obs.EvPipelinedAck
	case core.EvRepair:
		k = obs.EvRepair
	default:
		return
	}
	t.tr.Record(obs.Event{Op: t.op, Kind: k, Key: t.key, Shard: t.shard, Member: -1, Detail: ev.Detail(round, from, ts)})
}

// roundLabel names a protocol round in the paper's vocabulary: a write
// pre-writes then writes back; a read collects then writes back its
// timestamp.
func roundLabel(kind core.OpKind, round int) string {
	if kind == core.OpWrite {
		if round == 1 {
			return "pre-write"
		}
		return "write-back"
	}
	if round == 1 {
		return "collect"
	}
	return "write-back"
}
