package store

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/types"
)

// TestTelemetryOff: without Options.Telemetry every surface is empty and
// nil-safe — the default deployment pays nothing and panics nowhere.
func TestTelemetryOff(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)
	if err := s.Write(ctx, "k", types.Value("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(ctx, "k"); err != nil {
		t.Fatal(err)
	}
	snap := s.Telemetry()
	if len(snap.Counters) != 0 || len(snap.Histograms) != 0 {
		t.Errorf("telemetry-off snapshot must be empty, got %+v", snap)
	}
	if ev := s.Trace(); ev != nil {
		t.Errorf("telemetry-off trace must be nil, got %d events", len(ev))
	}
	if ev := s.TraceOp(1); ev != nil {
		t.Errorf("telemetry-off TraceOp must be nil, got %d events", len(ev))
	}
}

// TestTelemetryMetricsAndTrace: a telemetry-enabled store exposes
// per-shard operation counters and latency histograms under the
// store/shard=N/ paths, and every operation's trace is queryable by its
// op ID with the full round structure (begin, rounds, per-member
// replies, end).
func TestTelemetryMetricsAndTrace(t *testing.T) {
	clock := newTestClock()
	s, err := Open(Options{Shards: 2, Telemetry: &obs.Options{Clock: clock.Now}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)

	const keys = 16
	writes := make(map[int]int64) // per-shard expected write counts
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("tel-key-%d", i)
		if err := s.Write(ctx, key, types.Value("v")); err != nil {
			t.Fatal(err)
		}
		writes[s.ShardFor(key)]++
		if _, err := s.Read(ctx, key); err != nil {
			t.Fatal(err)
		}
	}

	snap := s.Telemetry()
	var wrTotal, rdTotal int64
	for sh := 0; sh < s.NumShards(); sh++ {
		prefix := fmt.Sprintf("store/shard=%d/", sh)
		wr := snap.Counters[prefix+"writes"]
		if wr != writes[sh] {
			t.Errorf("shard %d writes = %d, want %d", sh, wr, writes[sh])
		}
		wrTotal += wr
		rdTotal += snap.Counters[prefix+"reads"]
		h, ok := snap.Histograms[prefix+"write_ms"]
		if !ok {
			t.Fatalf("no write_ms histogram for shard %d", sh)
		}
		if h.Count != writes[sh] {
			t.Errorf("shard %d write_ms count = %d, want %d", sh, h.Count, writes[sh])
		}
	}
	if wrTotal != keys || rdTotal != keys {
		t.Errorf("totals writes=%d reads=%d, want %d each", wrTotal, rdTotal, keys)
	}

	// Every op trace: begin, ≥1 round, ≥1 reply, end — queryable by ID.
	events := s.Trace()
	if len(events) == 0 {
		t.Fatal("no trace events recorded")
	}
	ops := make(map[uint64]bool)
	for _, ev := range events {
		if ev.Op != 0 {
			ops[ev.Op] = true
		}
	}
	if len(ops) != 2*keys {
		t.Fatalf("traced %d distinct ops, want %d", len(ops), 2*keys)
	}
	for op := range ops {
		evs := s.TraceOp(op)
		kinds := make(map[obs.EventKind]int)
		for _, ev := range evs {
			kinds[ev.Kind]++
			if ev.Time.IsZero() {
				t.Errorf("op %d event %s has zero timestamp", op, ev.Kind)
			}
			if !strings.HasPrefix(ev.Key, "tel-key-") {
				t.Errorf("op %d event %s has key %q", op, ev.Kind, ev.Key)
			}
		}
		if kinds[obs.EvOpBegin] != 1 || kinds[obs.EvOpEnd] != 1 {
			t.Errorf("op %d: begin=%d end=%d, want exactly 1 each (%v)", op, kinds[obs.EvOpBegin], kinds[obs.EvOpEnd], kinds)
		}
		if kinds[obs.EvRound] < 1 || kinds[obs.EvReply] < 1 {
			t.Errorf("op %d: rounds=%d replies=%d, want ≥1 each", op, kinds[obs.EvRound], kinds[obs.EvReply])
		}
	}

	export := s.TelemetryExport()
	if export.Metrics.Counters["store/shard=0/writes"]+export.Metrics.Counters["store/shard=1/writes"] != keys {
		t.Error("export metrics disagree with snapshot")
	}
	// The export may be longer than the earlier snapshot — serve events
	// from the ≤ t members no round awaited are still landing — but the
	// snapshot must be a prefix of it: same events, same order.
	if len(export.Trace) < len(events) || !slices.Equal(export.Trace[:len(events)], events) {
		t.Errorf("snapshot of %d events is not a prefix of the %d-event export trace", len(events), len(export.Trace))
	}
}

// TestTraceDistributedPropagation: the wire envelope carries the op ID
// across the transport, so a single write's trace interleaves both
// sides of the protocol — the client's round events (Member = −1) and
// member-attributed serve-write events from at least S−t distinct
// members, the quorum the write round cannot complete without. The
// per-member serve counters must corroborate the events.
func TestTraceDistributedPropagation(t *testing.T) {
	clock := newTestClock()
	s, err := Open(Options{Telemetry: &obs.Options{Clock: clock.Now}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)
	if err := s.Write(ctx, "prop-key", types.Value("v")); err != nil {
		t.Fatal(err)
	}

	var op uint64
	for _, ev := range s.Trace() {
		if ev.Kind == obs.EvOpBegin && ev.Detail == "WRITE" {
			op = ev.Op
		}
	}
	if op == 0 {
		t.Fatal("no traced write op in the ring")
	}

	evs := s.TraceOp(op)
	clientRounds := 0
	served := make(map[int]bool) // distinct members that emitted serve-write for this op
	for _, ev := range evs {
		switch ev.Kind {
		case obs.EvRound:
			if ev.Member != -1 {
				t.Errorf("client round event attributed to member %d, want -1", ev.Member)
			}
			clientRounds++
		case obs.EvServeWrite:
			if ev.Member < 0 {
				t.Errorf("serve-write event without member attribution: %+v", ev)
			}
			if ev.Round != 1 && ev.Round != 2 {
				t.Errorf("serve-write round = %d, want 1 (pre-write) or 2 (write-back)", ev.Round)
			}
			served[ev.Member] = true
		}
	}
	if clientRounds < 2 {
		t.Errorf("write op %d has %d client round events, want ≥ 2 (pre-write + write-back)", op, clientRounds)
	}
	quorum := s.cfg.S - s.cfg.T
	if len(served) < quorum {
		t.Errorf("op %d served by %d distinct members, want ≥ S−t = %d (members: %v)", op, len(served), quorum, served)
	}

	// The per-member registry views must agree: every member that
	// emitted a serve-write for this op counts ≥ 1 served write.
	snap := s.Telemetry()
	for m := range served {
		path := fmt.Sprintf("store/shard=0/member=%d/served_writes", m)
		if got := snap.Counters[path]; got < 1 {
			t.Errorf("%s = %d, want ≥ 1 (member emitted a serve-write event)", path, got)
		}
	}
}

// TestTelemetryTraceDisabled: TraceCapacity < 0 keeps the metrics
// registry but records no events.
func TestTelemetryTraceDisabled(t *testing.T) {
	s, err := Open(Options{Telemetry: &obs.Options{TraceCapacity: -1}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := testCtx(t)
	if err := s.Write(ctx, "k", types.Value("v")); err != nil {
		t.Fatal(err)
	}
	if ev := s.Trace(); len(ev) != 0 {
		t.Errorf("tracing disabled but %d events recorded", len(ev))
	}
	if got := s.Telemetry().Counters["store/shard=0/writes"]; got != 1 {
		t.Errorf("writes counter = %d, want 1 (metrics must survive trace-off)", got)
	}
}

// testClock is a deterministic injectable clock: each reading advances
// by one millisecond.
type testClock struct {
	mu sync.Mutex
	n  int64
}

func newTestClock() *testClock { return &testClock{} }

func (c *testClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
	return time.Unix(0, c.n*int64(time.Millisecond))
}
