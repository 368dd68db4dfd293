package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/transport/batch"
	"repro/store"
)

// workload is one deployment + load the benchmark runs. The program
// under test receives only the operations generate produces from the
// seed; every other field is fixed.
type workload struct {
	name string
	why  string

	// opsPerSec × -seconds is the measured op count: fixed work, sized
	// so the measured phase lasts about -seconds on the builder's
	// 2-core machine (the issue's op counts at -seconds 30).
	opsPerSec int

	keys       int
	zipfS      float64 // 0 = uniform keys, else Zipf exponent (> 1)
	readPct    int     // reads per 100 ops
	valueBytes int

	tcp      bool
	batching bool
	t, b     int
	byz      int
	faults   *store.FaultPlan
}

var workloads = []workload{
	{
		name: "mem-mixed",
		why:  "Pure CPU path on memnet at 50/50: store mux/slots, core round engines, wire.Clone, memnet and object history install carry the cost; the codec and sockets do nothing.",

		opsPerSec: 13333, keys: 2048, readPct: 50, valueBytes: 128, t: 1, b: 1,
	},
	{
		name: "mem-read-heavy",
		why:  "The paper's headline case, 95 % single-round reads over Zipf(1.1) keys: the layers of mem-mixed used the other way, so a write-side gain that costs reads shows; hot keys hit flush-before-read.",

		opsPerSec: 20000, keys: 2048, zipfS: 1.1, readPct: 95, valueBytes: 128, t: 1, b: 1,
	},
	{
		name: "tcp-mixed",
		why:  "Loopback tcpnet + batching, 1 KiB values, 50/50: the wire codec, tcpnet framing/syscalls and batch carry the cost and wire.Clone does nothing, so codec and transport gains show here only.",

		opsPerSec: 5333, keys: 2048, readPct: 50, valueBytes: 1024, t: 1, b: 1, tcp: true, batching: true,
	},
	{
		name: "wan-byz",
		why:  "The very robust case: t=2 b=1 (S=6), one Byzantine and one 10 %-lossy object per shard, 1.0-1.2 ms injected one-way delay: latency is awaited round trips x 2.2 ms; CPU work does not show.",

		opsPerSec: 667, keys: 256, readPct: 50, valueBytes: 128, t: 2, b: 1, byz: 1,
		faults: &store.FaultPlan{Delay: time.Millisecond, Jitter: 200 * time.Microsecond, Faulty: 1, Drop: 0.10},
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Deployment constants common to all workloads.
const (
	shards          = 4
	readersPerShard = 2
	// clients is the closed loop's width: callers of a register each
	// wait for their reply, and the builder's machine has two cores.
	clients = 2
)

// options returns the store configuration of w. GC (history pruning) is
// on everywhere: without it the store's heap grows with the op count
// and no two runs of different length measure the same thing.
func (w workload) options(seed int64, telemetry bool) store.Options {
	o := store.Options{
		T: w.t, B: w.b,
		Shards:          shards,
		ReadersPerShard: readersPerShard,
		Semantics:       store.RegularOpt,
		FastRead:        true,
		PipelinedWrites: true,
		GC:              true,
		TCP:             w.tcp,
		ByzPerShard:     w.byz,
	}
	if w.batching {
		o.Batching = &batch.Options{}
	}
	if w.faults != nil {
		plan := w.faults.WithSeed(seed)
		o.Faults = &plan
	}
	if telemetry {
		o.Telemetry = &store.TelemetryOptions{}
	}
	return o
}

// roundQuorum is S−t, the replies a client awaits per round.
func (w workload) roundQuorum() int { return w.t + w.b + 1 }

// op is one generated operation: the key index, with opRead set for a
// read.
type op uint32

const opRead op = 1 << 31

func (o op) key() int   { return int(o &^ opRead) }
func (o op) read() bool { return o&opRead != 0 }

// generate returns the first n operations of the seeded sequence of w.
// The same (workload, seed) always yields the same sequence, and a
// longer n extends a shorter one.
func (w workload) generate(seed int64, n int) []op {
	rng := rand.New(rand.NewSource(seed))
	var zipf *rand.Zipf
	if w.zipfS > 0 {
		zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.keys-1))
	}
	ops := make([]op, n)
	for i := range ops {
		var o op
		if zipf != nil {
			o = op(zipf.Uint64())
		} else {
			o = op(rng.Intn(w.keys))
		}
		if rng.Intn(100) < w.readPct {
			o |= opRead
		}
		ops[i] = o
	}
	return ops
}

// keyNames returns the register IDs of w's key set.
func (w workload) keyNames() []string {
	names := make([]string, w.keys)
	for i := range names {
		names[i] = fmt.Sprintf("k%05d", i)
	}
	return names
}
