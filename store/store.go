// Package store is the public API of the sharded multi-register robust
// keyspace: string register IDs consistently hashed onto independent
// S = 2t+b+1 base-object clusters, each register an SWMR safe or regular
// register of Guerraoui & Vukolić (PODC 2006) with 2-round wait-free
// reads and writes under up to b Byzantine base objects per shard.
//
//	s, err := store.Open(store.Options{Shards: 4, Batching: &store.BatchOptions{}})
//	defer s.Close()
//	err = s.Write(ctx, "users/42", types.Value("alice"))
//	pair, err := s.Read(ctx, "users/42")
//
// The implementation lives in internal/store; this package re-exports
// the deployment surface. See examples/kvstore for a complete demo with
// Byzantine fault injection and consistency validation.
package store

import (
	"repro/internal/membership"
	"repro/internal/obs"
	"repro/internal/recovery"
	istore "repro/internal/store"
	"repro/internal/transport/batch"
	"repro/internal/transport/fault"
	"repro/internal/transport/flow"
)

// Store is a sharded multi-register robust keyspace.
type Store = istore.Store

// Options configures a deployment; see internal/store for field
// semantics. The zero value opens a single-shard in-memory store with
// t = b = 1.
type Options = istore.Options

// Metrics aggregates operation counts across the store's lifetime.
type Metrics = istore.Metrics

// Ring is the consistent-hash shard ring used for key routing.
type Ring = istore.Ring

// Semantics selects the per-register protocol variant.
type Semantics = istore.Semantics

// Register semantics.
const (
	Safe       = istore.Safe
	Regular    = istore.Regular
	RegularOpt = istore.RegularOpt
)

// BatchOptions are the batched-transport knobs (flush window and max
// batch size); the zero value selects the defaults.
type BatchOptions = batch.Options

// FaultPlan is the seeded fault schedule of the chaos transport layer
// (internal/transport/fault): per-link drop/delay/duplication/
// reordering, partitions, and crash/restart of the FaultPlan.Faulty
// lowest-indexed objects per shard. Set it via Options.Faults. Byzantine
// failures count against the same t budget, so keep
// Faulty + ByzPerShard ≤ T.
type FaultPlan = fault.Plan

// CrashPlan schedules crash/restart (or partition/heal) windows for the
// faulty set of a FaultPlan.
type CrashPlan = fault.CrashPlan

// FaultStats counts injected faults; Store.FaultStats aggregates them
// across shards.
type FaultStats = fault.Stats

// FaultNet is one shard's fault-injection layer, exposed by
// Store.FaultNet for manual fault control in tests and demos.
type FaultNet = fault.Net

// FlowOptions are the end-to-end flow-control knobs
// (internal/transport/flow). Set them via Options.Flow; the zero value
// selects every default. With a policy in place, every queue in the
// stack is bounded (object request queues in total and per sender,
// batch pending budgets, fault-layer delay queues — and reply
// mailboxes by that admission), overloaded hops push back with a
// wire.Busy notice instead of queueing, and the client treats
// pushed-back members as transiently slow: it sheds up to t of them
// per round (the quorum needs only S−t replies) and hedges the
// stragglers with delayed re-sends instead of blocking.
type FlowOptions = flow.Options

// FlowStats counts flow-control activity (pushbacks, sheds, hedges,
// bounded-queue high watermarks); Store.FlowStats aggregates them
// across shards and layers.
type FlowStats = flow.Stats

// RecoveryPolicy configures the amnesia catch-up subsystem
// (internal/recovery). Set it via Options.Recovery; the zero value
// selects every default (catch-up quorum t+b+1). With a policy in
// place, a base object restarted WITHOUT stable storage (an amnesia
// crash window, or fault.Net.RestartObjectAmnesia) is fenced out of
// every quorum until it has rebuilt its registers from a quorum of
// shard siblings — so a wiped-and-recovered object stops counting
// against the fault budget t.
type RecoveryPolicy = recovery.Policy

// RecoveryStats counts completed catch-ups and transferred registers;
// Store.RecoveryStats aggregates them across shards.
type RecoveryStats = recovery.Stats

// MembershipPolicy configures the reconfiguration subsystem
// (internal/membership). Set it via Options.Membership (requires
// Options.Recovery); the zero value selects a random per-deployment
// signing key. With a policy in place, every request and reply carries
// a configuration epoch, and Store.Replace swaps a faulty base object
// for a fresh one at a new transport address while reads and writes
// continue: the replacement catches up from t+b+1 members of the old
// configuration before the shard flips, stale clients are redirected
// by a signed ConfigUpdate frame, and the evicted member stops counting
// against the fault budget t.
type MembershipPolicy = membership.Policy

// MemberView is one shard's member list at one configuration epoch —
// logical object slot i served at physical transport address
// Members[i]. Store.MemberView returns the current one; Store.Replace
// returns the successor it installed.
type MemberView = membership.View

// MembershipStats counts reconfiguration activity (replacements,
// redirects served, client view adoptions, replayed in-flight ops);
// Store.MembershipStats aggregates them across shards.
type MembershipStats = membership.Stats

// TelemetryOptions configures the unified observability core
// (internal/obs). Set it via Options.Telemetry; the zero value selects
// every default (8192-event trace ring, wall-clock timestamps). With it
// in place the store mounts a hierarchical metrics registry — per-shard
// operation counters, latency histograms, and the flow, fault,
// recovery, and membership instruments under store/shard=N/... paths —
// and records every register operation's round-structured lifecycle
// (plus flow pushbacks, sheds, hedges, recovery fences, and
// reconfiguration adoptions) into a bounded ring-buffer op trace.
// Deterministic harnesses inject their seeded clock via
// TelemetryOptions.Clock; TraceCapacity < 0 keeps metrics but disables
// tracing.
type TelemetryOptions = obs.Options

// TelemetrySnapshot is a point-in-time capture of the metrics registry,
// keyed by hierarchical path; Store.Telemetry returns one.
type TelemetrySnapshot = obs.Snapshot

// TelemetryExport bundles a metrics snapshot with the op trace — the
// JSON artifact chaos runs persist and cmd/storetop renders.
// Store.TelemetryExport returns one.
type TelemetryExport = obs.Export

// TraceEvent is one recorded step of an operation's lifecycle (round
// start, per-member reply, Busy pushback, shed, hedge volley, recovery
// fence, ...), stamped with the operation ID Store.TraceOp queries by.
type TraceEvent = obs.Event

// Open builds and starts a store per opts.
func Open(opts Options) (*Store, error) { return istore.Open(opts) }

// NewRing builds a standalone routing ring (vnodes ≤ 0 selects the
// default), for clients that need to predict placement without opening
// a store.
func NewRing(shards, vnodes int) (*Ring, error) { return istore.NewRing(shards, vnodes) }
