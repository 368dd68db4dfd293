// Package store turns the single SWMR robust register of Guerraoui &
// Vukolić (PODC 2006) into a sharded multi-register keyspace. String
// register IDs are routed over a consistent-hash ring onto independent
// shards; each shard is one S = 2t+b+1 base-object cluster in which
// every base object hosts one independent register automaton per key
// (internal/object via the registry demultiplexer) and every key gets
// its own writer and per-reader-slot reader clients from internal/core,
// unchanged.
//
// The composition is safe because safe/regular register constructions
// compose locally: distinct registers share no protocol state — each
// key's timestamps, histories, and reader-timestamp matrices live in
// its own automaton — so the paper's per-register guarantees (2-round
// wait-free reads and writes, safety/regularity under ≤ b Byzantine
// objects per shard) carry over key by key.
//
// All register clients of a shard share one physical transport endpoint
// per role, which is what makes the batched hot path effective: with
// transport batching enabled, concurrent in-flight ops from different
// registers to the same base object coalesce into one wire.Batch frame
// (one encoder run, one socket write on TCP) instead of one frame per
// op.
package store

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/byzantine"
	"repro/internal/core"
	"repro/internal/membership"
	"repro/internal/object"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/recovery"
	"repro/internal/transport"
	"repro/internal/transport/batch"
	"repro/internal/transport/fault"
	"repro/internal/transport/flow"
	"repro/internal/transport/memnet"
	"repro/internal/transport/tcpnet"
	"repro/internal/types"
)

// Semantics selects the per-register protocol variant.
type Semantics string

// Register semantics. RegularOpt is the default: regular registers with
// the §5.1 cached-suffix optimization.
const (
	Safe       Semantics = "safe"
	Regular    Semantics = "regular"
	RegularOpt Semantics = "regular-opt"
)

// Options configures a deployment. The zero value opens a single-shard
// in-memory store with t = b = 1 (S = 4 objects), four reader slots,
// regular-optimized semantics, and batching off.
type Options struct {
	// T and B are the per-shard fault budgets; each shard runs
	// S = 2T+B+1 base objects. Both zero selects t = b = 1.
	T, B int
	// Shards is the number of independent base-object clusters
	// (default 1).
	Shards int
	// ReadersPerShard sizes each shard's reader-slot pool: the R of the
	// per-shard configuration, and the number of reads a shard serves
	// concurrently (default 4).
	ReadersPerShard int
	// VirtualNodes is the ring points per shard (default 64).
	VirtualNodes int
	// Semantics picks the register protocol (default RegularOpt).
	Semantics Semantics
	// FastRead enables the opportunistic single-round read fast path
	// plus slow-path read repair. A read whose first round returns S−t
	// byte-identical, timestamp-dominant, conflict-free replies decides
	// immediately and skips the write-back round (see core.SetFastPath
	// for the quorum-intersection safety argument); a read that does
	// fall through to round 2 piggybacks the dominant round-1 candidate
	// as a repair hint, pulling lagging objects forward so the NEXT
	// read's fast path can fire. Contention-free workloads converge to
	// ~1 round per read; the worst case stays the paper's 2 rounds.
	FastRead bool
	// PipelinedWrites overlaps consecutive writes to the same register:
	// op N's write-back round is issued without waiting for its acks,
	// and op N+1's pre-write round collects them alongside its own —
	// sound because PW(N+1) carries tuple(N) and base objects install
	// it before acking, so a PW(N+1) ack certifies the write-back of N
	// (see core.SetPipelined). Halves the awaited round-trips per
	// steady-state write. Reads to a register with a pending write-back
	// first flush it, preserving regularity.
	PipelinedWrites bool
	// TCP runs each shard over real loopback TCP instead of the
	// in-memory transport.
	TCP bool
	// Batching, when non-nil, enables the batched transport hot path
	// with these knobs.
	Batching *batch.Options
	// ByzPerShard makes the highest-indexed objects of every shard
	// Byzantine (high-forging adversaries from internal/byzantine).
	// Must be ≤ B.
	ByzPerShard int
	// GC enables history garbage collection on regular register
	// automata.
	GC bool
	// Faults, when non-nil, wraps every shard's network in the seeded
	// fault-injection layer (internal/transport/fault): message
	// drop/delay/duplication/reordering, partitions, and crash/restart
	// of the Faults.Faulty lowest-indexed objects per shard. Each shard
	// derives its own schedule from Faults.Seed. The paper's budget
	// counts Byzantine objects among the t faulty ones, so
	// Faults.Faulty + ByzPerShard must stay ≤ T for the deployment to
	// remain wait-free.
	Faults *fault.Plan
	// Recovery, when non-nil, enables the amnesia catch-up subsystem
	// (internal/recovery): every honest base object is wrapped in a
	// recovery guard that stamps replies with an incarnation epoch, and
	// an amnesia restart (a crash healed WITHOUT stable storage — see
	// fault.CrashPlan.AmnesiaBias and fault.Net.RestartObjectAmnesia)
	// fences the object out of quorums until it has rebuilt its
	// registers from Recovery.Quorum shard siblings. Requires regular
	// semantics (safe automata have no transferable history), and is
	// required whenever the fault plan schedules amnesia crashes — a
	// wiped object that cannot catch up is gone for good and silently
	// eats the whole t budget.
	Recovery *recovery.Policy
	// Flow, when non-nil, enables end-to-end flow control
	// (internal/transport/flow): every queue in the stack is bounded —
	// base-object request queues, in total and per sender (wire.Busy
	// pushback beyond them), the batch layer's pending ops (synthetic
	// Busy at the budget), the fault layer's delay queues (seeded
	// shedding at the cap), and client reply mailboxes bounded by that
	// admission (instrumented, never shed) — and the
	// client mux treats a pushed-back or budget-exhausted member as a
	// transiently slow object: since every round needs only S−t replies,
	// up to t slow members are shed per round and the stragglers are
	// hedged with delayed re-sends instead of blocking. Saturation then
	// costs bounded memory and signals overload (FlowStats) instead of
	// collapsing silently.
	Flow *flow.Options
	// Telemetry, when non-nil, enables the unified observability core
	// (internal/obs): a hierarchical metrics registry with per-shard
	// scopes (operation counters, latency histograms, and the flow,
	// fault, recovery, and membership instruments re-homed as live
	// views) and a bounded ring-buffer op tracer recording every
	// register operation's round-structured lifecycle. Snapshot with
	// Store.Telemetry / Store.TelemetryExport, query with Store.TraceOp.
	// The tracer stamps events with Telemetry.Clock, so deterministic
	// harnesses inject their seeded clock.
	Telemetry *obs.Options
	// Membership, when non-nil, enables the reconfiguration subsystem
	// (internal/membership): every request and reply carries a
	// configuration epoch, base objects answer stale-epoch requests with
	// a signed ConfigUpdate redirect, and Store.Replace swaps a faulty
	// base object for a fresh one at a new transport address while
	// reads and writes continue — restoring the fault budget t a
	// permanently dead or Byzantine member would otherwise consume
	// forever. Requires Recovery (the replacement rebuilds its registers
	// via the amnesia catch-up protocol, from the members of the
	// configuration being superseded).
	Membership *membership.Policy
}

// withDefaults normalizes opts.
func (o Options) withDefaults() (Options, error) {
	if o.T == 0 && o.B == 0 {
		o.T, o.B = 1, 1
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	if o.ReadersPerShard <= 0 {
		o.ReadersPerShard = 4
	}
	if o.Semantics == "" {
		o.Semantics = RegularOpt
	}
	switch o.Semantics {
	case Safe, Regular, RegularOpt:
	default:
		return o, fmt.Errorf("store: unknown semantics %q", o.Semantics)
	}
	if o.ByzPerShard > o.B {
		return o, fmt.Errorf("store: %d Byzantine objects per shard exceeds budget b = %d", o.ByzPerShard, o.B)
	}
	if o.ByzPerShard < 0 {
		return o, fmt.Errorf("store: negative ByzPerShard %d", o.ByzPerShard)
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return o, err
		}
		if o.Faults.Faulty+o.ByzPerShard > o.T {
			return o, fmt.Errorf("store: %d crash-faulty + %d Byzantine objects per shard exceed the fault budget t = %d (Byzantine failures count against t)",
				o.Faults.Faulty, o.ByzPerShard, o.T)
		}
		if o.Faults.Crash.AmnesiaBias > 0 && o.Recovery == nil {
			return o, fmt.Errorf("store: the fault plan schedules amnesia crashes (AmnesiaBias = %v) but no recovery policy is set — a wiped object can never rejoin the quorum without catch-up",
				o.Faults.Crash.AmnesiaBias)
		}
	}
	if o.Recovery != nil {
		if o.Semantics == Safe {
			return o, fmt.Errorf("store: recovery requires regular semantics (safe register automata have no transferable history)")
		}
		// The catch-up quorum must be satisfiable or a wiped object is
		// fenced forever: at most S−1 siblings exist, and Byzantine
		// objects never donate state (they are silent on StateReq).
		s := 2*o.T + o.B + 1
		q := o.Recovery.WithDefaults(o.T, o.B).Quorum
		if donors := s - 1 - o.ByzPerShard; q > donors {
			return o, fmt.Errorf("store: recovery quorum %d exceeds the %d honest siblings a recovering object has (S=%d, %d Byzantine) — catch-up could never complete",
				q, donors, s, o.ByzPerShard)
		}
		// Cross-validation needs the agreement threshold to be
		// collectible, or every row is unvouchable and a catch-up would
		// install EMPTY state behind a lifted fence — the silent quorum
		// erosion the fence exists to prevent.
		if p := o.Recovery.WithDefaults(o.T, o.B); p.CrossValidate && p.Vouchers > p.Quorum {
			return o, fmt.Errorf("store: recovery donor-validation threshold %d exceeds the catch-up quorum %d — no entry could ever gather enough vouchers",
				p.Vouchers, p.Quorum)
		}
	}
	if o.Flow != nil {
		if err := o.Flow.Validate(); err != nil {
			return o, err
		}
	}
	if o.Membership != nil && o.Recovery == nil {
		return o, fmt.Errorf("store: membership requires a recovery policy — a replacement object rebuilds its registers through the amnesia catch-up protocol before it joins quorums")
	}
	return o, nil
}

// Metrics aggregates operation counts across the store's lifetime.
type Metrics struct {
	Writes      int64
	WriteRounds int64
	Reads       int64
	ReadRounds  int64
	// FastReads counts reads that decided after round 1 (FastRead on).
	FastReads int64
}

// FastReadPct returns the percentage of reads that took the
// single-round fast path.
func (m Metrics) FastReadPct() float64 {
	if m.Reads == 0 {
		return 0
	}
	return 100 * float64(m.FastReads) / float64(m.Reads)
}

// RoundsPerRead returns the mean communication round-trips per READ.
func (m Metrics) RoundsPerRead() float64 {
	if m.Reads == 0 {
		return 0
	}
	return float64(m.ReadRounds) / float64(m.Reads)
}

// RoundsPerWrite returns the mean communication round-trips per WRITE.
func (m Metrics) RoundsPerWrite() float64 {
	if m.Writes == 0 {
		return 0
	}
	return float64(m.WriteRounds) / float64(m.Writes)
}

// network is the slice of memnet.Net / tcpnet.Net (or their
// fault-wrapped form) the store needs. Evict is the membership
// subsystem's release of a replaced object's endpoint.
type network interface {
	transport.Network
	AddTap(transport.Tap)
	Evict(transport.NodeID)
	Close() error
}

// Store is a sharded multi-register robust keyspace.
type Store struct {
	opts   Options
	cfg    quorum.Config
	ring   *Ring
	shards []*shard

	// memAuth signs and verifies configuration views (nil without
	// membership); all shards share the deployment key.
	memAuth *membership.Auth

	// tel is the observability core (nil without a telemetry option).
	tel *telemetry

	writes, writeRounds atomic.Int64
	reads, readRounds   atomic.Int64
	fastReads           atomic.Int64
}

// shard is one independent base-object cluster and its client pools.
type shard struct {
	index  int
	cfg    quorum.Config
	net    network
	faults *fault.Net // nil without a fault plan

	// flowCtrs aggregates flow-control activity across every layer of
	// THIS shard (nil without a flow policy); Store.FlowStats sums the
	// shards, Store.ShardFlowStats exposes them individually.
	flowCtrs *flow.Counters

	// fastRead/pipelined mirror Options.FastRead/PipelinedWrites for
	// the lazily created per-register clients.
	fastRead  bool
	pipelined bool

	// tel plus the per-shard instruments below (nil without telemetry).
	tel       *telemetry
	writes    *obs.Counter
	reads     *obs.Counter
	fastReads *obs.Counter
	slowReads *obs.Counter
	writeLat  *obs.Histogram
	readLat   *obs.Histogram

	writerMux *mux
	wmu       sync.Mutex
	writers   map[string]*regWriter

	slots    chan *readerSlot
	allSlots []*readerSlot

	members *shardMembership // nil without a membership policy

	// mmu guards the mutable per-slot object surfaces below, which
	// Replace swaps while accessors iterate.
	mmu      sync.Mutex
	objs     []*registry
	managers map[int]*recovery.Manager // per honest slot; empty without a recovery policy
	retired  recovery.Stats            // counters of managers closed by Replace
}

// regWriter serializes the single writer of one register.
type regWriter struct {
	mu    sync.Mutex
	w     *core.Writer
	trace *coreTracer // nil without telemetry
}

// readerSlot is one reusable reader identity of a shard: physical conn
// plus the per-register reader clients that have used it.
type readerSlot struct {
	id      types.ReaderID
	mux     *mux
	readers map[string]readerClient
	traces  map[string]*coreTracer // per-register tracer adapters (nil without telemetry)
}

// readerClient is what core's safe and regular readers have in common.
type readerClient interface {
	Read(ctx context.Context) (types.TSVal, error)
	LastStats() core.OpStats
	SetFastPath(on bool)
	SetTracer(t core.Tracer)
}

// Open builds and starts a store per opts.
func Open(opts Options) (*Store, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	cfg := quorum.Optimal(opts.T, opts.B, opts.ReadersPerShard)
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ring, err := NewRing(opts.Shards, opts.VirtualNodes)
	if err != nil {
		return nil, err
	}
	s := &Store{opts: opts, cfg: cfg, ring: ring, tel: newTelemetry(opts.Telemetry)}
	if opts.Membership != nil {
		key := opts.Membership.Key
		if len(key) == 0 {
			key = make([]byte, 32)
			if _, err := rand.Read(key); err != nil {
				return nil, fmt.Errorf("store: membership key generation: %w", err)
			}
		}
		s.memAuth = membership.NewAuth(key)
	}
	for i := 0; i < opts.Shards; i++ {
		sh, err := s.buildShard(i)
		if err != nil {
			s.Close()
			return nil, err
		}
		s.shards = append(s.shards, sh)
	}
	return s, nil
}

// faultSeedStride separates per-shard fault schedules derived from one
// root seed.
const faultSeedStride = 0x5DEECE66D

// buildShard starts one cluster: network (fault-wrapped when a plan is
// set), S multi-register objects (the last ByzPerShard of them
// Byzantine), a shared writer endpoint, and the reader-slot pool.
func (s *Store) buildShard(index int) (*shard, error) {
	// Each shard gets its own flow counters so saturation is visible
	// per shard (ShardFlowStats); FlowStats sums them for the old
	// aggregate view.
	var flowCtrs *flow.Counters
	if s.opts.Flow != nil {
		flowCtrs = &flow.Counters{}
	}
	// With flow control, the batching knobs gain the pending budget and
	// the shared counters, and both transports bound their queues.
	var batching *batch.Options
	if s.opts.Batching != nil {
		b := *s.opts.Batching
		if s.opts.Flow != nil {
			fo := s.opts.Flow.WithDefaults()
			b.PendingBudget = fo.BatchBudget
			b.Counters = flowCtrs
		}
		if s.tel != nil {
			// The batch layer emits coalesce/flush/pushback events into
			// the shared tracer, interleaving with the client and server
			// sides of every traced op.
			b.Trace = s.tel.tracer
			b.TraceShard = index
		}
		batching = &b
	}
	var nw network
	var memNet *memnet.Net // non-nil on the in-memory transport: its queue-depth probe feeds serve events
	if s.opts.TCP {
		n := tcpnet.New()
		if s.opts.Flow != nil {
			n.SetFlow(*s.opts.Flow, flowCtrs)
		}
		if batching != nil {
			n.EnableBatching(*batching)
		}
		if s.tel != nil {
			n.SetTrace(s.tel.tracer, index)
		}
		nw = n
	} else {
		n := memnet.New()
		if s.opts.Flow != nil {
			n.SetFlow(*s.opts.Flow, flowCtrs)
		}
		if batching != nil {
			n.EnableBatching(*batching)
		}
		if s.tel != nil {
			n.SetTrace(s.tel.tracer, index)
		}
		memNet = n
		nw = n
	}
	sh := &shard{index: index, cfg: s.cfg, net: nw, flowCtrs: flowCtrs, tel: s.tel,
		fastRead: s.opts.FastRead, pipelined: s.opts.PipelinedWrites,
		writers: make(map[string]*regWriter), managers: make(map[int]*recovery.Manager)}
	if s.opts.Faults != nil {
		plan := s.opts.Faults.WithSeed(s.opts.Faults.Seed + int64(index)*faultSeedStride)
		if s.opts.Flow != nil && plan.QueueBudget == 0 {
			// A flow-controlled deployment bounds the fault layer's delay
			// queues too; an explicit plan cap wins, otherwise the
			// object budget is a per-link cap of matching magnitude.
			plan.QueueBudget = s.opts.Flow.WithDefaults().ObjectBudget
		}
		sh.faults = fault.Wrap(nw, plan)
		if s.opts.Flow != nil {
			sh.faults.SetFlow(*s.opts.Flow, flowCtrs)
		}
		if s.tel != nil {
			sh.faults.SetTrace(s.tel.tracer, index)
		}
		nw = sh.faults
		sh.net = nw
	}
	if s.opts.Membership != nil {
		sh.members = newShardMembership(index, s.cfg.S)
	}

	// With a recovery policy, every honest object is served behind a
	// recovery guard: incarnation-stamped replies, the catch-up fence,
	// and StateReq donation. Byzantine objects stay unguarded — a real
	// adversary would not run the honest recovery automaton (it stays
	// silent on StateReq and its replies carry no epoch), and it never
	// crashes anyway: the faulty and Byzantine sets are disjoint. With
	// membership, EVERY object (Byzantine included) sits behind a config
	// gate: the worst-case adversary speaks the current configuration,
	// keeping its forged protocol replies in play across flips.
	guards := make([]*recovery.Guard, s.cfg.S)
	for i := 0; i < s.cfg.S; i++ {
		id := types.ObjectID(i)
		byz := i >= s.cfg.S-s.opts.ByzPerShard
		reg := newRegistry(s.registerFactory(id, byz))
		if s.tel != nil {
			var depth func() int
			if memNet != nil {
				oid := transport.Object(id)
				depth = func() int { return memNet.QueueDepth(oid) }
			}
			reg.EnableTrace(s.tel.tracer, index, i, depth)
		}
		var h transport.Handler = reg
		if s.opts.Recovery != nil && !byz {
			guards[i] = recovery.NewGuard(id, reg, reg)
			h = guards[i]
		}
		if sh.members != nil {
			gate := membership.NewGate(h, sh.members.counters, 0)
			sh.members.gates[i] = gate
			h = gate
		}
		if err := nw.Serve(transport.Object(id), h); err != nil {
			nw.Close()
			return nil, err
		}
		sh.objs = append(sh.objs, reg)
	}

	wconn, err := nw.Register(transport.Writer())
	if err != nil {
		nw.Close()
		return nil, err
	}
	sh.writerMux = newMux(wconn)
	if sh.members != nil {
		sh.writerMux.enableMembership(s.memAuth, sh.members.counters, sh.members.view.Clone())
	}
	if s.opts.Flow != nil {
		// Up to t members per round may be shed: the round quorum is S−t,
		// so t silent members — whatever silenced them — cost nothing.
		sh.writerMux.enableFlow(*s.opts.Flow, flowCtrs, s.cfg.S, s.cfg.T)
	}
	if s.tel != nil {
		sh.writerMux.enableTrace(s.tel.tracer, index)
	}

	sh.slots = make(chan *readerSlot, s.cfg.R)
	for j := 0; j < s.cfg.R; j++ {
		rconn, err := nw.Register(transport.Reader(types.ReaderID(j)))
		if err != nil {
			nw.Close()
			return nil, err
		}
		slot := &readerSlot{id: types.ReaderID(j), mux: newMux(rconn), readers: make(map[string]readerClient), traces: make(map[string]*coreTracer)}
		if sh.members != nil {
			slot.mux.enableMembership(s.memAuth, sh.members.counters, sh.members.view.Clone())
		}
		if s.opts.Flow != nil {
			slot.mux.enableFlow(*s.opts.Flow, flowCtrs, s.cfg.S, s.cfg.T)
		}
		if s.tel != nil {
			slot.mux.enableTrace(s.tel.tracer, index)
		}
		sh.allSlots = append(sh.allSlots, slot)
		sh.slots <- slot
	}

	// One catch-up manager per guarded object, each speaking through its
	// own recovery endpoint (the manager is a client of the shard's
	// network — through the fault layer, so catch-up traffic shares the
	// asynchrony faults but is never lossy: only object endpoints belong
	// to the faulty set).
	if s.opts.Recovery != nil {
		policy := s.opts.Recovery.WithDefaults(s.cfg.T, s.cfg.B)
		for i, guard := range guards {
			if guard == nil {
				continue
			}
			rconn, err := nw.Register(transport.Recovery(types.ObjectID(i)))
			if err != nil {
				for _, mgr := range sh.managers {
					mgr.Close()
				}
				nw.Close()
				return nil, err
			}
			siblings := make([]transport.NodeID, 0, s.cfg.S-1)
			for j := 0; j < s.cfg.S; j++ {
				if j != i {
					siblings = append(siblings, transport.Object(types.ObjectID(j)))
				}
			}
			mgr := recovery.NewManager(guard, rconn, siblings, policy)
			if s.tel != nil {
				mgr.SetTrace(s.tel.tracer, index)
			}
			sh.managers[i] = mgr
		}
	}
	s.mountShard(sh)
	return sh, nil
}

// mountShard hangs the shard's instruments off the telemetry registry
// under store/shard=N/...: operation counters and latency histograms
// owned by the scope, the flow/fault/membership counters re-homed in
// place (the registry mounts the very instances the subsystems already
// write), and the recovery counters as live views — their owning
// managers churn on Replace, so a view over the per-shard aggregation
// is the address that survives.
func (s *Store) mountShard(sh *shard) {
	if s.tel == nil {
		return
	}
	scope := s.tel.reg.Root().Scope("store").Scope(fmt.Sprintf("shard=%d", sh.index))
	sh.writes = scope.Counter("writes")
	sh.reads = scope.Counter("reads")
	sh.writeLat = scope.Histogram("write_ms")
	sh.readLat = scope.Histogram("read_ms")
	if sh.fastRead {
		sh.fastReads = scope.Counter("fast_reads")
		sh.slowReads = scope.Counter("slow_reads")
	}
	// Per-member serve counters as live views: Replace swaps the slot's
	// registry, so the view over the current sh.objs entry is the address
	// that survives (like the recovery views below).
	for i := range sh.objs {
		idx := i
		ms := scope.Scope(fmt.Sprintf("member=%d", idx))
		ms.View("served_writes", func() int64 {
			sh.mmu.Lock()
			defer sh.mmu.Unlock()
			return sh.objs[idx].servedWrites.Load()
		})
		ms.View("served_reads", func() int64 {
			sh.mmu.Lock()
			defer sh.mmu.Unlock()
			return sh.objs[idx].servedReads.Load()
		})
	}
	if sh.flowCtrs != nil {
		sh.flowCtrs.Describe(scope.Scope("flow"))
	}
	if sh.faults != nil {
		sh.faults.Describe(scope.Scope("fault"))
	}
	if sh.members != nil {
		sh.members.counters.Describe(scope.Scope("membership"))
	}
	if s.opts.Recovery != nil {
		rs := scope.Scope("recovery")
		rs.View("catch_ups", func() int64 { return sh.recoveryStats().CatchUps })
		rs.View("regs_restored", func() int64 { return sh.recoveryStats().RegsRestored })
		rs.View("superseded", func() int64 { return sh.recoveryStats().Superseded })
	}
}

// registerFactory returns the per-register automaton builder for one
// base object.
func (s *Store) registerFactory(id types.ObjectID, byz bool) func(string) transport.Handler {
	cfg, sem, gc := s.cfg, s.opts.Semantics, s.opts.GC
	forged := types.Value("forged-by-byzantine")
	return func(string) transport.Handler {
		if byz {
			if sem == Safe {
				return byzantine.NewSafeHighForger(id, cfg.R, 1000, forged, nil)
			}
			return byzantine.NewRegularHighForger(id, cfg.R, 1000, forged)
		}
		if sem == Safe {
			return object.NewSafe(id, cfg.R)
		}
		obj := object.NewRegular(id, cfg.R)
		if gc {
			obj.EnableGC()
		}
		return obj
	}
}

// Config returns the per-shard resilience configuration.
func (s *Store) Config() quorum.Config { return s.cfg }

// NumShards returns the shard count.
func (s *Store) NumShards() int { return len(s.shards) }

// ShardFor returns the shard index key routes to — a pure function of
// the deployment shape and the key.
func (s *Store) ShardFor(key string) int { return s.ring.Shard(key) }

// AddTap installs a message observer on every shard's network (frame
// accounting in tests and benchmarks).
func (s *Store) AddTap(t transport.Tap) {
	for _, sh := range s.shards {
		sh.net.AddTap(t)
	}
}

// FaultNet returns shard's fault-injection layer for manual fault
// control (partitions, crash/restart) in tests and demos, or nil when
// the store was opened without a fault plan.
func (s *Store) FaultNet(shard int) *fault.Net {
	if shard < 0 || shard >= len(s.shards) {
		return nil
	}
	return s.shards[shard].faults
}

// FaultStats aggregates the injected-fault counters across all shards
// (zero without a fault plan).
func (s *Store) FaultStats() fault.Stats {
	var total fault.Stats
	for _, sh := range s.shards {
		if sh.faults != nil {
			total = total.Add(sh.faults.Stats())
		}
	}
	return total
}

// FlowStats returns the flow-control activity across every layer and
// shard: Busy pushbacks observed, batch-budget rejections, sends shed
// at busy members, straggler hedges fired, bounded-mailbox sheds, and
// the queue-depth high watermarks (zero without a flow policy). With a
// flow policy, every watermark is bounded by its configured budget —
// that is the point.
func (s *Store) FlowStats() flow.Stats {
	var total flow.Stats
	for _, sh := range s.shards {
		total = total.Add(sh.flowCtrs.Snapshot())
	}
	return total
}

// ShardFlowStats returns each shard's flow-control activity (index i
// is shard i; zero values without a flow policy) — the per-shard view
// the aggregate hides: a hot shard's pushbacks and hedges stand out
// against its cold siblings'.
func (s *Store) ShardFlowStats() []flow.Stats {
	out := make([]flow.Stats, len(s.shards))
	for i, sh := range s.shards {
		out[i] = sh.flowCtrs.Snapshot()
	}
	return out
}

// RecoveringCount returns how many base objects are currently fenced
// pending amnesia catch-up, across all shards (zero without a recovery
// policy). A fenced object answers nothing and is excluded from every
// quorum until its catch-up completes.
func (s *Store) RecoveringCount() int {
	n := 0
	for _, sh := range s.shards {
		sh.mmu.Lock()
		for _, mgr := range sh.managers {
			if mgr.Recovering() {
				n++
			}
		}
		sh.mmu.Unlock()
	}
	return n
}

// RecoveryStats aggregates the catch-up counters across all shards
// (zero without a recovery policy).
func (s *Store) RecoveryStats() recovery.Stats {
	var total recovery.Stats
	for _, sh := range s.shards {
		total = total.Add(sh.recoveryStats())
	}
	return total
}

// recoveryStats aggregates this shard's catch-up counters: the live
// managers plus whatever retired ones (closed by Replace) accumulated.
func (sh *shard) recoveryStats() recovery.Stats {
	sh.mmu.Lock()
	defer sh.mmu.Unlock()
	total := sh.retired
	for _, mgr := range sh.managers {
		total = total.Add(mgr.Stats())
	}
	return total
}

// Metrics returns the cumulative operation counters.
func (s *Store) Metrics() Metrics {
	return Metrics{
		Writes:      s.writes.Load(),
		WriteRounds: s.writeRounds.Load(),
		Reads:       s.reads.Load(),
		ReadRounds:  s.readRounds.Load(),
		FastReads:   s.fastReads.Load(),
	}
}

// Write stores val in register key. Concurrent writes to distinct keys
// proceed in parallel; writes to the same key serialize, preserving the
// single-writer model per register.
func (s *Store) Write(ctx context.Context, key string, val types.Value) error {
	_, err := s.WriteTS(ctx, key, val)
	return err
}

// WriteTS is Write returning the timestamp the register's writer
// assigned to this value.
func (s *Store) WriteTS(ctx context.Context, key string, val types.Value) (types.TS, error) {
	sh := s.shards[s.ring.Shard(key)]
	rw, err := sh.writerFor(key)
	if err != nil {
		return 0, err
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	var start time.Time
	if s.tel != nil {
		if rw.trace != nil {
			rw.trace.op = s.tel.tracer.NewOp()
			sh.writerMux.bindOp(key, rw.trace.op)
		}
		start = s.tel.clock()
	}
	if err := rw.w.Write(ctx, val); err != nil {
		return 0, fmt.Errorf("store: write %q: %w", key, err)
	}
	s.writes.Add(1)
	s.writeRounds.Add(int64(rw.w.LastStats().Rounds))
	if s.tel != nil {
		sh.writes.Inc()
		sh.writeLat.Observe(s.tel.clock().Sub(start))
	}
	return rw.w.TS(), nil
}

// Read returns register key's current timestamp-value pair (⟨0,⊥⟩ if
// never written). It borrows one of the shard's reader slots for the
// duration; with all slots busy it waits for one or for ctx.
func (s *Store) Read(ctx context.Context, key string) (types.TSVal, error) {
	sh := s.shards[s.ring.Shard(key)]
	if sh.pipelined {
		// A pipelined writer may have returned from Write(N) with the
		// write-back round still in flight; a read that started after
		// that return must not miss tuple(N), so complete the
		// certification first. In the common case W(N)'s acks already
		// sit in the writer's mailbox and this costs no round-trip.
		if err := sh.flushPending(ctx, key); err != nil {
			return types.TSVal{}, fmt.Errorf("store: read %q: flush pending write: %w", key, err)
		}
	}
	var slot *readerSlot
	select {
	case slot = <-sh.slots:
	case <-ctx.Done():
		return types.TSVal{}, ctx.Err()
	}
	defer func() { sh.slots <- slot }()

	r, err := sh.readerFor(slot, key, s.opts.Semantics)
	if err != nil {
		return types.TSVal{}, err
	}
	var start time.Time
	if s.tel != nil {
		if tr := slot.traces[key]; tr != nil {
			tr.op = s.tel.tracer.NewOp()
			slot.mux.bindOp(key, tr.op)
		}
		start = s.tel.clock()
	}
	tv, err := r.Read(ctx)
	if err != nil {
		return types.TSVal{}, fmt.Errorf("store: read %q: %w", key, err)
	}
	st := r.LastStats()
	s.reads.Add(1)
	s.readRounds.Add(int64(st.Rounds))
	if st.FastPath {
		s.fastReads.Add(1)
	}
	if s.tel != nil {
		sh.reads.Inc()
		if st.FastPath && sh.fastReads != nil {
			sh.fastReads.Inc()
		} else if !st.FastPath && sh.slowReads != nil {
			sh.slowReads.Inc()
		}
		sh.readLat.Observe(s.tel.clock().Sub(start))
	}
	return tv, nil
}

// flushPending completes any outstanding pipelined write-back on key
// before a read observes the register. No-op when key has no writer
// here or its write-back is already certified.
func (sh *shard) flushPending(ctx context.Context, key string) error {
	sh.wmu.Lock()
	rw := sh.writers[key]
	sh.wmu.Unlock()
	if rw == nil {
		return nil
	}
	rw.mu.Lock()
	defer rw.mu.Unlock()
	return rw.w.Flush(ctx)
}

// writerFor returns key's register writer, creating it on first use
// over the shard's shared writer endpoint.
func (sh *shard) writerFor(key string) (*regWriter, error) {
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	rw := sh.writers[key]
	if rw == nil {
		w, err := core.NewWriter(sh.cfg, sh.writerMux.register(key))
		if err != nil {
			return nil, err
		}
		if sh.pipelined {
			w.SetPipelined(true)
		}
		rw = &regWriter{w: w}
		if sh.tel != nil && sh.tel.tracer != nil {
			rw.trace = &coreTracer{tr: sh.tel.tracer, key: key, shard: sh.index}
			w.SetTracer(rw.trace)
		}
		sh.writers[key] = rw
	}
	return rw, nil
}

// readerFor returns the slot's reader client for key, creating it on
// first use. Reader state (control timestamps, the §5.1 cache) is per
// (slot, register), matching the paper's per-reader identity j.
func (sh *shard) readerFor(slot *readerSlot, key string, sem Semantics) (readerClient, error) {
	if r := slot.readers[key]; r != nil {
		return r, nil
	}
	conn := slot.mux.register(key)
	var (
		r   readerClient
		err error
	)
	switch sem {
	case Safe:
		r, err = core.NewSafeReader(sh.cfg, conn, slot.id)
	case Regular:
		r, err = core.NewRegularReader(sh.cfg, conn, slot.id, false)
	default:
		r, err = core.NewRegularReader(sh.cfg, conn, slot.id, true)
	}
	if err != nil {
		return nil, err
	}
	r.SetFastPath(sh.fastRead)
	if sh.tel != nil && sh.tel.tracer != nil {
		trace := &coreTracer{tr: sh.tel.tracer, key: key, shard: sh.index}
		r.SetTracer(trace)
		slot.traces[key] = trace
	}
	slot.readers[key] = r
	return r, nil
}

// Close tears every shard down.
func (s *Store) Close() error {
	var errs []error
	for _, sh := range s.shards {
		sh.mmu.Lock()
		managers := make([]*recovery.Manager, 0, len(sh.managers))
		for _, mgr := range sh.managers {
			managers = append(managers, mgr)
		}
		sh.mmu.Unlock()
		for _, mgr := range managers {
			errs = append(errs, mgr.Close())
		}
		sh.writerMux.close()
		for _, slot := range sh.allSlots {
			slot.mux.close()
		}
		errs = append(errs, sh.net.Close())
	}
	return errors.Join(errs...)
}
