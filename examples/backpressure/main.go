// Backpressure demo: overload one shard of a flow-controlled store and
// watch saturation become a SIGNAL instead of unbounded queue growth.
//
// The deployment runs two shards at t = b = 1 (S = 4 base objects
// each) with deliberately tiny flow budgets: the batch layer may hold
// only a handful of coalescing ops, each base object's request queue is
// a few entries deep (beyond it the object answers a wire.Busy naming
// the rejected request), and the fault layer is absent so every effect
// shown is pure overload. A storm of writers and readers is aimed at
// keys that all route to shard 0, while shard 1 serves a light workload
// untouched — overload is contained to the hot shard, not propagated
// as a global stall.
//
// The client muxes treat every Busy (and every batch-budget rejection)
// as a transiently slow object: the protocols need only S−t replies per
// round, so up to t busy members are shed from each broadcast and the
// round's stragglers are hedged with delayed re-sends. Every operation
// completes; the flow counters show how hard the budgets were hit; and
// every queue high-watermark stays within its configured budget.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/types"
	"repro/store"
)

func main() {
	fo := &store.FlowOptions{
		LinkBudget:   16,
		ObjectBudget: 4,
		BatchBudget:  8,
		HedgeDelay:   time.Millisecond,
	}
	s, err := store.Open(store.Options{
		T: 1, B: 1,
		Shards:          2,
		ReadersPerShard: 4,
		Batching:        &store.BatchOptions{FlushWindow: 300 * time.Microsecond, MaxBatch: 16},
		Flow:            fo,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()

	// Pick keys by where the ring routes them: the storm all lands on
	// shard 0, the trickle on shard 1.
	var hot, cold []string
	for i := 0; len(hot) < 24 || len(cold) < 4; i++ {
		key := fmt.Sprintf("reg/%04d", i)
		if s.ShardFor(key) == 0 {
			if len(hot) < 24 {
				hot = append(hot, key)
			}
		} else if len(cold) < 4 {
			cold = append(cold, key)
		}
	}
	fmt.Printf("== 2 shards × S=4 (t=1, b=1), budgets: object=%d batch=%d link=%d, hedge delay %v\n",
		fo.ObjectBudget, fo.BatchBudget, fo.LinkBudget, fo.HedgeDelay)
	fmt.Printf("   storm: %d registers on shard 0 · trickle: %d registers on shard 1\n\n", len(hot), len(cold))

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	var wg sync.WaitGroup
	errCh := make(chan error, len(hot)+len(cold))
	const opsPerKey = 8
	work := func(key string) {
		defer wg.Done()
		for i := 0; i < opsPerKey; i++ {
			if err := s.Write(ctx, key, types.Value(fmt.Sprintf("%s=v%d", key, i))); err != nil {
				errCh <- fmt.Errorf("write %s: %w", key, err)
				return
			}
			if _, err := s.Read(ctx, key); err != nil {
				errCh <- fmt.Errorf("read %s: %w", key, err)
				return
			}
		}
	}
	var coldLat time.Duration
	for _, key := range hot {
		wg.Add(1)
		go work(key)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		// The trickle measures what the overloaded neighbour shard costs
		// the healthy one: nothing — budgets contain overload locally.
		for i := 0; i < opsPerKey; i++ {
			for _, key := range cold {
				t0 := time.Now()
				if err := s.Write(ctx, key, types.Value(fmt.Sprintf("%s=v%d", key, i))); err != nil {
					errCh <- fmt.Errorf("cold write %s: %w", key, err)
					return
				}
				if _, err := s.Read(ctx, key); err != nil {
					errCh <- fmt.Errorf("cold read %s: %w", key, err)
					return
				}
				if d := time.Since(t0); d > coldLat {
					coldLat = d
				}
			}
		}
	}()
	wg.Wait()
	close(errCh)
	for err := range errCh {
		log.Fatalf("an operation failed — flow control must refuse work, never lose it: %v", err)
	}
	elapsed := time.Since(start)

	m := s.Metrics()
	fs := s.FlowStats()
	fmt.Printf("completed %d writes + %d reads in %v (worst cold-shard op: %v)\n\n",
		m.Writes, m.Reads, elapsed.Round(time.Millisecond), coldLat.Round(time.Microsecond))
	fmt.Println("overload was signaled, not absorbed:")
	fmt.Printf("   Busy pushbacks observed by clients: %d (of which batch-budget rejections: %d)\n", fs.Pushbacks, fs.BatchPushbacks)
	fmt.Printf("   broadcasts shed at busy members:    %d (≤ t per round — the quorum spares them)\n", fs.Sheds)
	fmt.Printf("   straggler hedges fired:             %d (delayed re-sends instead of blocking)\n\n", fs.Hedges)
	fmt.Println("and every queue stayed within its configured budget:")
	check := func(name string, hw, budget int64) {
		verdict := "✓"
		if hw > budget {
			verdict = "!! EXCEEDED"
		}
		fmt.Printf("   %-28s high water %3d ≤ budget %3d %s\n", name, hw, budget, verdict)
	}
	check("object request queues", fs.ObjectHighWater, int64(fo.ObjectBudget))
	check("batch pending ops", fs.BatchHighWater, int64(fo.BatchBudget))
	check("per-sender object queue share", fs.LinkHighWater, int64(fo.LinkBudget))
	if fs.ObjectHighWater > int64(fo.ObjectBudget) || fs.BatchHighWater > int64(fo.BatchBudget) || fs.LinkHighWater > int64(fo.LinkBudget) {
		log.Fatal("a bounded queue exceeded its budget")
	}
	if fs.Pushbacks == 0 {
		log.Fatal("the storm never tripped a budget — no backpressure was demonstrated")
	}
	fmt.Println("\nsaturation produced bounded queues + explicit pushback + hedged completion, not silent collapse ✓")
}
