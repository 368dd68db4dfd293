package store

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/batch"
	"repro/internal/transport/flow"
	"repro/internal/transport/memnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// TestFlowControlledStoreCompletesUnderTinyBudgets: with every budget
// squeezed far below the workload's in-flight demand, the batch layer
// pushes back constantly — yet every op still completes (hedging
// re-drives what the budgets refused) and every queue stays within its
// configured bound.
func TestFlowControlledStoreCompletesUnderTinyBudgets(t *testing.T) {
	fo := &flow.Options{
		LinkBudget:   8,
		ObjectBudget: 4,
		BatchBudget:  4,
		HedgeDelay:   500 * time.Microsecond,
	}
	s, err := Open(Options{
		T: 1, B: 1,
		Shards:          1,
		ReadersPerShard: 4,
		Batching:        &batch.Options{FlushWindow: 200 * time.Microsecond, MaxBatch: 16, ActivationOps: batch.AlwaysCoalesce},
		Flow:            fo,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const workers, ops = 12, 10
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			key := fmt.Sprintf("flow/%d", w)
			for i := 0; i < ops; i++ {
				if err := s.Write(ctx, key, types.Value(fmt.Sprintf("v%d", i))); err != nil {
					errs <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
			tv, err := s.Read(ctx, key)
			if err != nil {
				errs <- fmt.Errorf("reader %d: %w", w, err)
				return
			}
			if string(tv.Val) != fmt.Sprintf("v%d", ops-1) {
				errs <- fmt.Errorf("reader %d: read %q", w, tv.Val)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	fs := s.FlowStats()
	t.Logf("flow stats: %v", fs)
	if fs.BatchPushbacks == 0 {
		t.Fatalf("a 4-op pending budget under 12 concurrent writers must push back: %v", fs)
	}
	if fs.BatchHighWater > int64(fo.BatchBudget) {
		t.Fatalf("batch backlog %d exceeded budget %d", fs.BatchHighWater, fo.BatchBudget)
	}
	if fs.ObjectHighWater > int64(fo.ObjectBudget) {
		t.Fatalf("object backlog %d exceeded budget %d", fs.ObjectHighWater, fo.ObjectBudget)
	}
	if fs.LinkHighWater > int64(fo.LinkBudget) {
		t.Fatalf("per-link backlog %d exceeded budget %d", fs.LinkHighWater, fo.LinkBudget)
	}
	if fs.Hedges == 0 {
		t.Fatalf("pushed-back rounds must be hedged: %v", fs)
	}
}

// TestFlowOptionsValidated: a negative budget is refused at Open.
func TestFlowOptionsValidated(t *testing.T) {
	_, err := Open(Options{Flow: &flow.Options{LinkBudget: -1}})
	if err == nil {
		t.Fatal("negative flow budget accepted")
	}
}

// TestFlowStatsZeroWithoutPolicy: the accessor is safe and zero on a
// deployment opened without flow control.
func TestFlowStatsZeroWithoutPolicy(t *testing.T) {
	s, err := Open(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if fs := s.FlowStats(); fs != (flow.Stats{}) {
		t.Fatalf("FlowStats = %+v without a policy", fs)
	}
}

// TestMuxBusyNoticePerOp: a Busy notice bouncing a Batch of n ops costs
// the client mux n pushbacks and n busy trace events — each attributed
// to the register and trace ID the notice names — and marks the sender
// busy, so the next round sheds it.
func TestMuxBusyNoticePerOp(t *testing.T) {
	net := memnet.New()
	defer net.Close()
	client, err := net.Register(transport.Writer())
	if err != nil {
		t.Fatal(err)
	}
	obj, err := net.Register(transport.Object(1))
	if err != nil {
		t.Fatal(err)
	}
	ctrs := &flow.Counters{}
	tr := obs.NewTracer(64, nil)
	m := newMux(client)
	defer m.close()
	m.enableFlow(flow.Options{HedgeDelay: time.Hour}, ctrs, 3, 1)
	m.enableTrace(tr, 7)

	bounced := wire.Batch{Ops: []wire.Msg{
		wire.RegOp{Reg: "a", Op: 11, Msg: wire.WReq{TS: 1, PW: types.TSVal{TS: 1, Val: make(types.Value, 1<<10)}}},
		wire.RegOp{Reg: "b", Op: 12, Msg: wire.WReq{TS: 1}},
		wire.RegOp{Reg: "c", Op: 0, Msg: wire.ReadReq{Round: wire.Round1}},
	}}
	obj.Send(transport.Writer(), wire.BusyFor(bounced))

	deadline := time.Now().Add(5 * time.Second)
	for ctrs.Snapshot().Pushbacks < int64(len(bounced.Ops)) || len(tr.Events()) < len(bounced.Ops) {
		if time.Now().After(deadline) {
			t.Fatalf("Pushbacks = %d, events = %d, want %d each", ctrs.Snapshot().Pushbacks, len(tr.Events()), len(bounced.Ops))
		}
		time.Sleep(time.Millisecond)
	}
	if got := ctrs.Snapshot().Pushbacks; got != int64(len(bounced.Ops)) {
		t.Fatalf("Pushbacks = %d, want one per bounced op (%d)", got, len(bounced.Ops))
	}
	var got []wire.OpRef
	for _, ev := range tr.Events() {
		if ev.Kind != obs.EvBusy {
			t.Fatalf("unexpected trace event %+v", ev)
		}
		if ev.Shard != 7 || ev.Member != 1 {
			t.Fatalf("busy event attributed to shard %d member %d, want 7/1", ev.Shard, ev.Member)
		}
		got = append(got, wire.OpRef{Reg: ev.Key, Op: ev.Op})
	}
	want := []wire.OpRef{{Reg: "a", Op: 11}, {Reg: "b", Op: 12}, {Reg: "c"}}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("busy events name %+v, want %+v", got, want)
	}

	// The bounced member is inside its busy cooldown: a fresh round
	// sheds it (budget 1) and reaches the others.
	rc := m.register("a")
	for slot := 0; slot < 3; slot++ {
		rc.Send(transport.Object(types.ObjectID(slot)), wire.WReq{TS: 2})
	}
	if shed := ctrs.Snapshot().Sheds; shed != 1 {
		t.Fatalf("Sheds = %d, want the busy member shed once", shed)
	}
}
