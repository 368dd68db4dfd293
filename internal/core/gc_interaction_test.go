package core_test

// Interaction of history garbage collection with mixed reader kinds.
// GC prunes below the *minimum* cache watermark across all readers, so
// an unoptimized reader (which always sends CacheTS 0) pins the
// watermark at 0 and effectively disables pruning — the invariant that
// makes enabling GC safe regardless of reader configuration.

import (
	"fmt"
	"testing"

	"repro/internal/types"
)

func TestGCDisabledByUnoptimizedReader(t *testing.T) {
	c := newRegularCluster(t, 1, 1, 2, nil, true) // GC on, 2 readers
	w := c.writer()
	opt := c.regularReader(0, true)
	unopt := c.regularReader(1, false)

	for i := 1; i <= 20; i++ {
		if err := w.Write(ctx(t), types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		// Both readers advance; only reader 0 reports a cache watermark.
		if _, err := opt.Read(ctx(t)); err != nil {
			t.Fatal(err)
		}
		if _, err := unopt.Read(ctx(t)); err != nil {
			t.Fatal(err)
		}
	}
	// The unoptimized reader pinned the watermark at 0: nothing was
	// pruned, so every history runs unbroken from ts 0 to its newest
	// entry. (A Write returns after S−t acks, so a straggler may not
	// hold write 20 yet.)
	for i, obj := range c.reg {
		if obj == nil {
			continue
		}
		h := obj.Snapshot().History
		for ts := types.TS(0); ts <= h.MaxTS(); ts++ {
			if _, ok := h[ts]; !ok {
				t.Fatalf("object %d lacks ts %d of %v despite an unoptimized reader", i, ts, h.Timestamps())
			}
		}
	}
}

func TestGCPrunesOnceAllReadersOptimized(t *testing.T) {
	c := newRegularCluster(t, 1, 1, 2, nil, true)
	w := c.writer()
	r0 := c.regularReader(0, true)
	r1 := c.regularReader(1, true)

	for i := 1; i <= 20; i++ {
		if err := w.Write(ctx(t), types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Both readers read twice: the first read returns ts 20 and caches
	// it; the second advertises CacheTS 20 to the objects, letting them
	// prune everything below.
	for pass := 0; pass < 2; pass++ {
		if _, err := r0.Read(ctx(t)); err != nil {
			t.Fatal(err)
		}
		if _, err := r1.Read(ctx(t)); err != nil {
			t.Fatal(err)
		}
	}
	pruned := 0
	for _, obj := range c.reg {
		if obj == nil {
			continue
		}
		if obj.HistoryLen() <= 2 {
			pruned++
		}
	}
	// Every object both readers reached has pruned; allow the straggler
	// the round quorum may skip.
	if pruned < c.cfg.RoundQuorum() {
		t.Fatalf("only %d objects pruned, want ≥ %d", pruned, c.cfg.RoundQuorum())
	}
	// Reads still work after pruning.
	got, err := r0.Read(ctx(t))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Val.Equal(types.Value("v20")) {
		t.Fatalf("post-GC read = %v", got)
	}
}

func TestGCThenNewWritesStillReadable(t *testing.T) {
	c := newRegularCluster(t, 1, 1, 1, nil, true)
	w := c.writer()
	r := c.regularReader(0, true)
	for i := 1; i <= 10; i++ {
		if err := w.Write(ctx(t), types.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Read(ctx(t)); err != nil {
			t.Fatal(err)
		}
	}
	// Histories are pruned; continue writing and reading.
	for i := 11; i <= 15; i++ {
		val := types.Value(fmt.Sprintf("v%d", i))
		if err := w.Write(ctx(t), val); err != nil {
			t.Fatal(err)
		}
		got, err := r.Read(ctx(t))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Val.Equal(val) {
			t.Fatalf("read %d = %v", i, got)
		}
	}
}
