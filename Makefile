GO ?= go

.PHONY: all build vet lint test race fuzz fmt fmt-check bench bench-gate demo chaos chaos-recovery chaos-membership chaos-saturation chaos-telemetry clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs the vetstore suite (internal/analysis): custom analyzers that
# mechanically enforce the repo's hand-maintained invariants — sync.Pool
# buffer safety, transport lock discipline, seeded determinism, and
# context threading. See the README's "Static analysis" section.
lint:
	$(GO) build -o bin/vetstore ./cmd/vetstore
	$(GO) vet -vettool=$(abspath bin/vetstore) ./...

# bench/ is a module of its own (it imports this one), so the root
# ./... does not reach it: test it here too, so a change to wire or
# store.Options that breaks the benchmark fails tier-1, not the driver.
test:
	$(GO) test ./...
	$(GO) test -C bench ./...

race:
	$(GO) test -race ./...

# fuzz runs the compact decoder's fuzz target — the decoder is what
# Byzantine peers feed — seeded from every sample message's encoding.
# CI calls this target, so a local run fuzzes the same way.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCompact$$' -fuzztime 30s ./internal/wire

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# bench runs every benchmark once as a smoke check and regenerates the
# store perf-trajectory file BENCH_store.json (single-register vs.
# sharded vs. batched; every row carries ops/s, p50/p99 latency and
# allocs/op, plus the saturated degraded-mode row at 2x capacity under
# flow control). BENCH_store.json is the committed regression baseline
# cmd/benchgate gates CI against — rerun this target to refresh it when
# a legitimate perf change lands.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .
	$(GO) run ./cmd/benchharness -store -saturate -out BENCH_store.json

# bench-gate mirrors the CI perf gate: generate a fresh grid into
# BENCH_current.json (never clobbering the committed baseline) and diff
# it against BENCH_store.json with the default noise bands.
bench-gate:
	$(GO) run ./cmd/benchharness -store -saturate -out BENCH_current.json
	$(GO) run ./cmd/benchgate -baseline BENCH_store.json -current BENCH_current.json

demo:
	$(GO) run ./examples/kvstore

# chaos runs the seeded fault-injection soak under the race detector —
# the batched multi-shard store over memnet and tcpnet with message
# drop/delay/duplication/reordering, partitions, and crash/restart of
# one object per shard (plus one Byzantine object), validated register
# by register against internal/consistency — then the chaos demo.
chaos:
	$(GO) test -race -count=1 -run 'Chaos' -v ./internal/harness
	$(GO) run ./examples/chaos

# chaos-recovery runs the amnesia soak under the race detector: every
# crash window restarts the object with WIPED volatile state, the
# internal/recovery subsystem rebuilds its registers from a quorum of
# shard siblings mid-workload (memnet and tcpnet), and every register
# history — including reads recorded after the last catch-up — must
# validate as safe and regular. Then the recovery demo.
chaos-recovery:
	$(GO) test -race -count=1 -run 'ChaosRecovery' -v ./internal/harness
	$(GO) run ./examples/recovery

# chaos-membership runs the live-reconfiguration soak under the race
# detector on memnet and tcpnet: with the seeded chaos workload running
# (drop/jitter/duplication/reordering, amnesia crash windows, one
# Byzantine object per shard), one base object per shard is killed for
# good and Replaced at a fresh address; every register must validate
# regular semantics across the configuration flip, post-flip reads must
# observe all pre-flip completed writes, and stale clients must heal
# through signed ConfigUpdate redirects (observed in the stats). Then
# the membership demo.
chaos-membership:
	$(GO) test -race -count=1 -run 'ChaosMembership' -v ./internal/harness
	$(GO) run ./examples/membership

# chaos-saturation runs the overload soak under the race detector on
# memnet and tcpnet: the store is driven PAST capacity (2x the reader
# slots, writer concurrency far above the squeezed flow budgets) while
# every queue in the stack is bounded — object queues answer Busy, the
# batch layer pushes back at its pending budget, the fault layer's
# delay queues shed at their cap — and the client muxes shed slow
# members and hedge stragglers. Per-register regularity must hold,
# every queue depth must stay within its configured budget (asserted),
# and FlowStats must show the overload was signaled. Then the
# backpressure demo.
chaos-saturation:
	$(GO) test -race -count=1 -run 'ChaosSaturation' -v ./internal/harness
	$(GO) run ./examples/backpressure

# chaos-telemetry runs the observability soak under the race detector:
# the amnesia recovery soak at the saturation workload with telemetry
# on, asserting the op trace captures every event class (Busy pushback,
# hedge volleys, recovery fence wait/lift) attributed to operation IDs,
# the registry's re-homed counters agree with the legacy stats
# surfaces, and the per-shard flow view localizes a hot shard's
# overload. With TELEMETRY_DIR set, each soak writes its metrics +
# trace export there (rendered by cmd/storetop).
chaos-telemetry:
	$(GO) test -race -count=1 -run 'ChaosTelemetry|ShardFlowStats' -v ./internal/harness

# BENCH_store.json is deliberately NOT cleaned: it is the committed
# perf-regression baseline, not a build product. BENCH_current.json is
# the throwaway grid bench-gate generates.
clean:
	rm -f BENCH_current.json
	rm -rf bin
