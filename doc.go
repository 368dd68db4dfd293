// Package repro is a from-scratch Go reproduction of "How Fast Can a
// Very Robust Read Be?" (Guerraoui & Vukolić, PODC 2006): wait-free
// robust register emulations over Byzantine-prone base objects.
//
// The library implements the paper's optimally resilient (S = 2t+b+1)
// safe and regular SWMR storage with 2-round reads and writes
// (internal/core), the base objects (internal/object), an executable
// rendition of the Proposition 1 lower-bound proof
// (internal/lowerbound), the baselines the paper positions itself
// against (internal/baseline), the §6 server-centric model
// (internal/servercentric), and three interchangeable transports
// (internal/transport/...).
//
// Beyond the reproduction, the store package (backed by
// internal/store) scales the single register into a sharded
// multi-register keyspace — string keys consistent-hashed onto
// independent base-object clusters, one register automaton per key per
// object — and internal/transport/batch adds the batched hot path that
// coalesces concurrent in-flight ops to the same base object into one
// multi-op frame on both the in-memory and the TCP transport.
//
// The robustness the paper proves is exercised for real by
// internal/transport/fault: a composable, seeded fault-injection layer
// that wraps either transport with per-link message drop, delay,
// jitter, duplication, reordering, link partitions, and base-object
// crash/restart cycles (on TCP, a crash severs sockets and a restart
// exercises the client's re-dial path). The budget arithmetic follows
// §2 of the paper: at most t faulty objects per shard, of which at most
// b ≤ t Byzantine — crash-faulty and Byzantine objects draw from the
// same t, so store.Options enforces Faults.Faulty + ByzPerShard ≤ T.
// harness.RunChaos soaks the keyspace under a seeded schedule and
// validates every register's history against internal/consistency;
// `make chaos` runs it under the race detector.
//
// The paper's crash model assumes stable storage — a restarted object
// returns with its state intact. internal/recovery drops that
// assumption: an amnesia restart (fault.CrashPlan.AmnesiaBias, or
// RestartObjectAmnesia) wipes the object's volatile registers and bumps
// its incarnation epoch; the object is fenced out of every quorum (it
// answers nothing, and its pre-crash replies are rejected by clients as
// stale via the wire.RegOp.Inc incarnation stamp) until a catch-up
// protocol has rebuilt its registers from t+b+1 shard siblings
// (wire.StateReq/StateResp, timestamp-dominant merge). That quorum
// always intersects the latest completed write's quorum in an honest
// object, so a recovered object rejoins at full freshness and stops
// counting against the t budget instead of silently eroding write
// quorums. `make chaos-recovery` soaks amnesia restarts mid-workload on
// both transports under the race detector. Deployments that admit
// lying state donors can enable recovery.Policy.CrossValidate: per-
// entry b+1 agreement replaces the blind timestamp-dominant merge.
//
// The paper also fixes the object set S forever, so a PERMANENTLY dead
// or Byzantine member eats the fault budget t for the lifetime of the
// deployment. internal/membership lifts that with a reconfiguration
// epoch: the shard's slot→address member list is versioned
// (wire.RegOp.Cfg on every request, beside the incarnation stamp
// replies carry in the same header), and Store.Replace swaps a faulty member for a
// fresh object at a new transport address while reads and writes
// continue. The replacement is an amnesia recovery at a new address —
// served fenced, state-transferred from t+b+1 members of the OLD
// configuration (so completed writes dominate the installed state and
// the old and new quorums intersect across the flip) — after which the
// shard flips: members answer stale-epoch ops with an HMAC-signed
// wire.ConfigUpdate redirect, clients verify, adopt, and replay their
// in-flight ops in one extra round-trip, and the evicted endpoint is
// released (late fault-plan operations against it are recorded no-ops,
// fault.Stats.StaleTargets). `make chaos-membership` soaks a live
// replacement per shard mid-workload on both transports under the race
// detector.
//
// Finally, the paper's liveness argument assumes a responsive quorum
// but says nothing about workloads that outrun the hardware.
// internal/transport/flow bounds every queue in the stack: base-object
// request queues answer a wire.Busy notice beyond their budget (total,
// or one sender's per-link share), the batch layer refuses ops past
// its pending budget with a synthetic Busy (coalesce-or-pushback), the
// fault layer's delay queues shed at a seeded cap, and client reply
// mailboxes — where a shed acknowledgement could never be re-elicited
// — are bounded by that request admission and only instrumented.
// The client mux treats a pushed-back member as transiently slow —
// every round needs only S−t replies, and the proofs budget for t
// silent members whatever silenced them — so it sheds up to t slow
// members per round and re-drives the stragglers with backed-off
// hedges while the round's client is still waiting. Shedding removes
// requests, never acknowledgements, so regularity is untouched;
// hedging restores liveness; saturation costs bounded memory and
// produces an explicit signal (store.FlowStats) instead of silent
// collapse. `make chaos-saturation` soaks the store at 2× capacity
// under the race detector on both transports.
//
// Every layer above also emits evidence, and internal/obs unifies it:
// a hierarchical metrics registry (store.Options.Telemetry) and a
// bounded op-trace ring with distributed propagation. The wire.RegOp
// envelope carries an Op uint64 trace ID: the client mux stamps it on
// every outbound request (hedges and replays keep the ID), servers
// echo it in replies and emit member-attributed serve/batch/busy/fault
// events under the same ID, and Store.TraceOp returns one operation's
// whole distributed life, client and replica sides interleaved by the
// shared injected clock. The convention is zero-when-untraced: Op == 0
// means the frame belongs to no traced operation — servers count it
// but record no events, the compact codec spends nothing on it beyond
// the header's one flags byte, and a telemetry-off deployment pays
// nothing else. An anomaly
// flight recorder (obs.FlightRecorder, armed by harness.RunChaos)
// freezes registry and ring into a self-contained JSON dump on a
// consistency violation, p99 watermark breach, or an overheld recovery
// fence; cmd/storetop -flight renders the dump as per-op timelines
// with one lane per member. `make chaos-telemetry` soaks all of it
// under the race detector.
//
// The hot path itself is kept honest by construction: the compact
// codec encodes into pooled buffers (wire.AppendCompact for zero-copy
// callers), the TCP framer reuses pooled frame buffers on both sides
// of the socket, and the batch layer is adaptive — a destination stays
// in pass-through (zero added latency, no timers) until sends
// demonstrably contend, and reverts when coalescing stops amortizing.
// Every row of BENCH_store.json carries goodput, p50/p99 latency, and
// allocs/op, and cmd/benchgate is the CI perf-regression gate: it
// diffs a fresh benchharness run against the committed baseline
// row-by-row and fails the build when goodput drops, or tail latency
// or allocations grow, beyond the configured noise bands.
//
// The round count itself is the paper's own metric, and its
// lower-bound framing (Proposition 1: no safe storage with S ≤ 2t+b
// base objects, and two rounds are required only when reads contend
// with writes or faults manifest) leaves the common case open to a
// fast path. store.Options.FastRead takes it: a reader decides after
// round 1 alone when all S−t collected replies are byte-identical —
// equal by internal/types' Equal, which compares timestamps, value
// bytes, matrix rows and history entries, never an encoding of them —
// timestamp-dominant (pw = w at the top, so no write-back is in
// flight), and conflict-free for this reader (no reported read
// timestamp above its own). The predicate is safe by the S = 2t+b+1
// intersection arithmetic: S−t identical replies contain at least
// t+b+1 − t = b+1 honest vouchers, and any S−t read quorum intersects
// any completed write's S−t install quorum in S−2t = b+1 objects — at
// least one honest and up-to-date — so a unanimous quorum proves no
// newer completed write exists and skipping round 2 cannot miss one.
// Any divergence, in-flight pre-write, or forged conflict matrix fails
// the predicate and the read falls back to the classic two rounds,
// where the round-2 frame piggybacks the dominant b+1-vouched
// candidate as a repair hint (wire.ReadReq.Repair) that heals lagging
// replicas, converging the degraded tail back onto the fast path.
// store.Options.PipelinedWrites halves the writer's awaited rounds the
// same way: op N's write-back is issued unawaited and certified by op
// N+1's pre-write acks (the pre-write frame carries op N's tuple, and
// objects install before acking), with reads flushing a same-key
// pending write-back first so regularity is preserved. The measured
// rounds/read and fast-read hit rate appear in every bench row and are
// gated by benchgate's rounds-per-read ceiling.
//
// See README.md for the map and how to run the examples and
// benchmarks. bench_test.go in this directory regenerates every
// experiment via `go test -bench`; BENCH_store.json records the store
// throughput trajectory, including degraded-mode (faulty network) and
// saturated (2× capacity under flow control, goodput + p99) rows.
package repro
