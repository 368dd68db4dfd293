package repro

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/harness"
	"repro/internal/lowerbound"
	"repro/internal/types"
	"repro/internal/wire"
)

// Per-operation micro-benchmarks: one write or read on an in-memory
// cluster, per protocol. These are the latency numbers behind E4.

func benchOps(b *testing.B, p harness.Protocol, t, bz int, read bool) {
	b.Helper()
	cl, err := harness.Build(harness.Spec{Protocol: p, T: t, B: bz, Readers: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := cl.Writer().Write(ctx, types.Value("warm")); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if read {
			if _, err := cl.Reader(0).Read(ctx); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := cl.Writer().Write(ctx, types.Value(fmt.Sprintf("v%d", i))); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkWrite(b *testing.B) {
	for _, p := range harness.AllProtocols() {
		b.Run(string(p), func(b *testing.B) { benchOps(b, p, 2, 1, false) })
	}
}

func BenchmarkRead(b *testing.B) {
	for _, p := range harness.AllProtocols() {
		b.Run(string(p), func(b *testing.B) { benchOps(b, p, 2, 1, true) })
	}
}

// Experiment benchmarks: each iteration regenerates one experiment at
// CI scale. `go test -bench E -benchtime 1x` prints every table once.

func BenchmarkE1LowerBound(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, table := harness.RunE1([]struct{ T, B int }{{1, 1}, {2, 2}})
		if !res.AllViolated() {
			b.Fatalf("E1 failed:\n%s", table)
		}
	}
}

func BenchmarkE2SafeRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunE2([]struct{ T, B int }{{1, 1}, {2, 2}}, 3)
		for _, r := range rows {
			if r.ReadRoundsMax > 2 {
				b.Fatalf("read exceeded 2 rounds: %+v", r)
			}
		}
	}
}

func BenchmarkE3RegularRounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunE3([]struct{ T, B int }{{1, 1}, {2, 2}}, 3)
		for _, r := range rows {
			if r.ReadRoundsMax > 2 {
				b.Fatalf("read exceeded 2 rounds: %+v", r)
			}
		}
	}
}

func BenchmarkE4Protocols(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, _ := harness.RunE4(2, 1, 10, 100*time.Microsecond); len(rows) == 0 {
			b.Fatal("no E4 rows")
		}
	}
}

func BenchmarkE4WorstCase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunE4WorstCase(3)
		for _, r := range rows {
			if r.GV06Rounds != 2 {
				b.Fatalf("gv06 rounds %d at b=%d", r.GV06Rounds, r.B)
			}
		}
	}
}

func BenchmarkE5Contention(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := harness.RunE5(1, 1, 10)
		for _, r := range rows {
			if !r.Safe {
				b.Fatalf("safety violated: %+v", r)
			}
		}
	}
}

func BenchmarkE6Byzantine(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, _ := harness.RunE6(2, 1, 3); len(rows) == 0 {
			b.Fatal("no E6 rows")
		}
	}
}

func BenchmarkE7Messages(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, _ := harness.RunE7([]struct{ T, B int }{{1, 1}, {2, 2}}, 3); len(rows) == 0 {
			b.Fatal("no E7 rows")
		}
	}
}

func BenchmarkE8HistoryOpt(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, _ := harness.RunE8(1, 1, []int{10, 40}); len(rows) == 0 {
			b.Fatal("no E8 rows")
		}
	}
}

func BenchmarkE9ServerCentric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, _ := harness.RunE9(1, 1, 8, 0); len(rows) == 0 {
			b.Fatal("no E9 rows")
		}
	}
}

func BenchmarkE10Resilience(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, _ := harness.RunE10(2, 1); len(rows) == 0 {
			b.Fatal("no E10 rows")
		}
	}
}

// Store benchmarks: the sharded multi-register keyspace, single vs.
// sharded vs. batched (the BENCH_store.json grid; cmd/benchharness
// -store regenerates the recorded file).

func BenchmarkStoreSingleRegisterBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := harness.RunSingleRegisterBench(1, 1, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OpsPerSec, "ops/s")
	}
}

func BenchmarkStoreScenarios(b *testing.B) {
	for _, sc := range harness.StoreScenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := harness.RunStoreBench(sc.Name, sc.Spec, 64, 4)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.OpsPerSec, "ops/s")
				if res.RoundsPerRead > 2 {
					b.Fatalf("read exceeded 2 rounds: %+v", res)
				}
			}
		})
	}
}

func BenchmarkStoreByzantineShards(b *testing.B) {
	spec := harness.StoreSpec{T: 1, B: 1, Shards: 2, ReadersPerShard: 4, ByzPerShard: 1, Batched: true}
	for i := 0; i < b.N; i++ {
		res, err := harness.RunStoreBench("byz", spec, 32, 4)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.OpsPerSec, "ops/s")
	}
}

// Component micro-benchmarks.

func BenchmarkProposition1Replay(b *testing.B) {
	proto := lowerbound.Candidates()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := lowerbound.Run(proto, 2, 2); !res.Violated() {
			b.Fatal("no violation")
		}
	}
}

func BenchmarkWireEncode(b *testing.B) {
	h := types.NewHistory()
	for ts := types.TS(1); ts <= 32; ts++ {
		w := types.WTuple{TSVal: types.TSVal{TS: ts, Val: types.Value("abcdefgh")}, TSR: types.NewTSRMatrix()}
		h[ts] = types.HistEntry{PW: w.TSVal, W: &w}
	}
	msg := wire.ReadAckHist{ObjectID: 3, Round: wire.Round2, TSR: 7, History: h}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := wire.EncodeCompact(msg); err != nil {
			b.Fatal(err)
		}
	}
}
