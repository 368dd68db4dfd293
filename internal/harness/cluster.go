// Package harness builds clusters for every protocol in the repository
// and drives the experiments E1–E10 of DESIGN.md, producing the tables
// recorded in EXPERIMENTS.md. Both cmd/benchharness and the repository
// benchmarks call into it.
package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/baseline"
	"repro/internal/byzantine"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/quorum"
	"repro/internal/servercentric"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/types"
)

// Protocol names every storage implementation the harness can build.
type Protocol string

// Protocols under comparison.
const (
	GV06Safe       Protocol = "gv06-safe"        // the paper, Figs. 2–4
	GV06Regular    Protocol = "gv06-regular"     // the paper, Figs. 2, 5, 6
	GV06RegularOpt Protocol = "gv06-regular-opt" // + §5.1 cache optimization
	ABD            Protocol = "abd"              // crash-only [3], b=0
	ABDAtomic      Protocol = "abd-atomic"       // + write-back round
	MultiRound     Protocol = "multiround"       // non-mutating readers [1]
	Auth           Protocol = "auth"             // signed data [15]
	FastSafe       Protocol = "fastsafe"         // S=2t+2b+1, 1-round ops
	ServerCentric  Protocol = "server-centric"   // §6 push model
)

// AllProtocols lists the comparison set in report order.
func AllProtocols() []Protocol {
	return []Protocol{GV06Safe, GV06Regular, GV06RegularOpt, ABD, ABDAtomic, MultiRound, Auth, FastSafe, ServerCentric}
}

// ByzKind selects a Byzantine strategy for fault injection.
type ByzKind string

// Byzantine strategies (mapped to a protocol-appropriate attacker).
const (
	ByzMute        ByzKind = "mute"
	ByzHighForger  ByzKind = "high-forger"
	ByzEquivocator ByzKind = "equivocator"
	ByzStale       ByzKind = "stale"
	ByzAccuser     ByzKind = "accuser"
)

// AllByzKinds lists the strategies swept by E6.
func AllByzKinds() []ByzKind {
	return []ByzKind{ByzMute, ByzHighForger, ByzEquivocator, ByzStale, ByzAccuser}
}

// Spec describes one cluster to build.
type Spec struct {
	Protocol Protocol
	T, B     int
	Readers  int
	// Crash lists object indices crashed before any operation.
	Crash []int
	// Byz assigns strategies to object indices (must have ≤ B entries).
	Byz map[int]ByzKind
	// Delay, when set, adds a constant per-link latency.
	Delay time.Duration
	// GC enables history garbage collection on regular objects.
	GC bool
}

// Client is the uniform client surface over all protocols.
type Client interface {
	Write(ctx context.Context, v types.Value) error
	Read(ctx context.Context) (types.TSVal, error)
	WriteStats() core.OpStats
	ReadStats() core.OpStats
}

// Cluster is a built, running storage system.
type Cluster struct {
	Spec    Spec
	Cfg     quorum.Config
	Net     *memnet.Net
	Counter *stats.Counter

	writer  writerClient
	readers []readerClient
	regObjs []*object.Regular
	servers []*servercentric.Server
	conns   []transport.Conn
}

type writerClient interface {
	Write(ctx context.Context, v types.Value) error
	LastStats() core.OpStats
}

type readerClient interface {
	Read(ctx context.Context) (types.TSVal, error)
	LastStats() core.OpStats
}

// Writer returns the cluster's writer client.
func (c *Cluster) Writer() writerClient { return c.writer }

// Reader returns reader j's client.
func (c *Cluster) Reader(j int) readerClient { return c.readers[j] }

// RegularObjects returns the honest regular objects (E8 metrics).
func (c *Cluster) RegularObjects() []*object.Regular { return c.regObjs }

// Close stops servers and tears the network down.
func (c *Cluster) Close() {
	for _, s := range c.servers {
		s.Stop()
	}
	for _, conn := range c.conns {
		conn.Close()
	}
	c.Net.Close()
}

// objectCount returns the S each protocol uses for (t, b).
func objectCount(p Protocol, t, b int) int {
	switch p {
	case ABD, ABDAtomic:
		return 2*t + 1
	case FastSafe:
		return 2*t + 2*b + 1
	default:
		return quorum.OptimalS(t, b)
	}
}

// Build constructs and starts a cluster per spec.
func Build(spec Spec) (*Cluster, error) {
	return buildCluster(spec, objectCount(spec.Protocol, spec.T, spec.B))
}

// buildCluster is Build with an explicit object count (E10 probes
// above- and below-threshold configurations).
func buildCluster(spec Spec, s int) (*Cluster, error) {
	if spec.Readers < 1 {
		spec.Readers = 1
	}
	cfg := quorum.Config{S: s, T: spec.T, B: spec.B, R: spec.Readers}
	cl := &Cluster{Spec: spec, Cfg: cfg, Net: memnet.New(), Counter: stats.NewCounter()}
	cl.Net.AddTap(cl.Counter)
	if spec.Delay > 0 {
		d := spec.Delay
		cl.Net.SetDelay(func(_, _ transport.NodeID) time.Duration { return d })
	}

	var keys baseline.AuthKeys
	if spec.Protocol == Auth {
		var err error
		keys, err = baseline.GenerateKeys()
		if err != nil {
			cl.Net.Close()
			return nil, err
		}
	}

	// Install objects.
	for i := 0; i < s; i++ {
		id := types.ObjectID(i)
		var h transport.Handler
		if kind, isByz := spec.Byz[i]; isByz {
			h = byzHandler(spec.Protocol, kind, id, cfg)
		} else {
			h = honestHandler(spec.Protocol, id, cfg, spec.GC, cl)
		}
		if h == nil {
			// Server-centric nodes were started as active servers.
			continue
		}
		if err := cl.Net.Serve(transport.Object(id), h); err != nil {
			cl.Close()
			return nil, err
		}
	}
	for _, i := range spec.Crash {
		cl.Net.Crash(transport.Object(types.ObjectID(i)))
	}

	// Build clients.
	reg := func(id transport.NodeID) (transport.Conn, error) {
		conn, err := cl.Net.Register(id)
		if err != nil {
			return nil, err
		}
		cl.conns = append(cl.conns, conn)
		return conn, nil
	}
	wconn, err := reg(transport.Writer())
	if err != nil {
		cl.Close()
		return nil, err
	}
	cl.writer, err = buildWriter(spec.Protocol, cfg, keys, wconn)
	if err != nil {
		cl.Close()
		return nil, err
	}
	for j := 0; j < spec.Readers; j++ {
		rconn, err := reg(transport.Reader(types.ReaderID(j)))
		if err != nil {
			cl.Close()
			return nil, err
		}
		r, err := buildReader(spec.Protocol, cfg, keys, rconn, types.ReaderID(j))
		if err != nil {
			cl.Close()
			return nil, err
		}
		cl.readers = append(cl.readers, r)
	}
	return cl, nil
}

// honestHandler returns the correct object for a protocol, or nil after
// registering an active server (server-centric).
func honestHandler(p Protocol, id types.ObjectID, cfg quorum.Config, gc bool, cl *Cluster) transport.Handler {
	switch p {
	case GV06Safe:
		return object.NewSafe(id, cfg.R)
	case GV06Regular, GV06RegularOpt:
		obj := object.NewRegular(id, cfg.R)
		if gc {
			obj.EnableGC()
		}
		cl.regObjs = append(cl.regObjs, obj)
		return obj
	case MultiRound:
		return baseline.NewTwoFieldObject(id)
	case ABD, ABDAtomic, Auth, FastSafe:
		return baseline.NewObject(id)
	case ServerCentric:
		conn, err := cl.Net.Register(transport.Object(id))
		if err != nil {
			return nil
		}
		srv := servercentric.NewServer(id, cfg, conn)
		srv.Start()
		cl.servers = append(cl.servers, srv)
		return nil
	default:
		return nil
	}
}

// byzHandler maps a strategy name to a protocol-appropriate attacker.
func byzHandler(p Protocol, kind ByzKind, id types.ObjectID, cfg quorum.Config) transport.Handler {
	forged := types.Value("forged-by-byzantine")
	switch p {
	case GV06Safe:
		switch kind {
		case ByzMute:
			return byzantine.Mute{}
		case ByzHighForger:
			return byzantine.NewSafeHighForger(id, cfg.R, 1000, forged, nil)
		case ByzEquivocator:
			return byzantine.NewSafeEquivocator(id, cfg.R, 1000, forged)
		case ByzStale:
			return byzantine.NewSafeStale(id, cfg.R)
		case ByzAccuser:
			accuse := []types.ObjectID{}
			for i := 0; i < cfg.S; i++ {
				if types.ObjectID(i) != id {
					accuse = append(accuse, types.ObjectID(i))
				}
			}
			return byzantine.NewSafeAccuser(id, cfg.R, accuse)
		}
	case GV06Regular, GV06RegularOpt:
		switch kind {
		case ByzMute:
			return byzantine.Mute{}
		case ByzHighForger:
			return byzantine.NewRegularHighForger(id, cfg.R, 1000, forged)
		case ByzEquivocator:
			return byzantine.NewRegularEquivocator(id, cfg.R, 1000, forged)
		case ByzStale:
			return byzantine.NewRegularStale(id, cfg.R)
		case ByzAccuser:
			return byzantine.NewRegularHighForger(id, cfg.R, 1000, forged)
		}
	case MultiRound:
		switch kind {
		case ByzMute:
			return byzantine.Mute{}
		case ByzStale:
			return baseline.NewStaleObject(id)
		default:
			return baseline.NewPairsForgerObject(id, 1000, forged)
		}
	case ABD, ABDAtomic, Auth, FastSafe:
		switch kind {
		case ByzMute:
			return byzantine.Mute{}
		case ByzStale:
			return baseline.NewStaleObject(id)
		default:
			return baseline.NewForgerObject(id, 1000, forged)
		}
	}
	return byzantine.Mute{}
}

func buildWriter(p Protocol, cfg quorum.Config, keys baseline.AuthKeys, conn transport.Conn) (writerClient, error) {
	switch p {
	case GV06Safe, GV06Regular, GV06RegularOpt:
		return core.NewWriter(cfg, conn)
	case ABD, ABDAtomic, FastSafe:
		return baseline.NewWriter(cfg, conn), nil
	case MultiRound:
		return baseline.NewMultiRoundWriter(cfg, conn)
	case Auth:
		return baseline.NewAuthWriter(cfg, keys, conn)
	case ServerCentric:
		return servercentric.NewWriter(cfg, conn)
	default:
		return nil, fmt.Errorf("harness: unknown protocol %q", p)
	}
}

func buildReader(p Protocol, cfg quorum.Config, keys baseline.AuthKeys, conn transport.Conn, j types.ReaderID) (readerClient, error) {
	switch p {
	case GV06Safe:
		return core.NewSafeReader(cfg, conn, j)
	case GV06Regular:
		return core.NewRegularReader(cfg, conn, j, false)
	case GV06RegularOpt:
		return core.NewRegularReader(cfg, conn, j, true)
	case ABD:
		return baseline.NewABDReader(cfg, conn, false), nil
	case ABDAtomic:
		return baseline.NewABDReader(cfg, conn, true), nil
	case MultiRound:
		return baseline.NewMultiRoundReader(cfg, conn)
	case Auth:
		return baseline.NewAuthReader(cfg, keys, conn)
	case FastSafe:
		return baseline.NewFastSafeReader(cfg, conn), nil
	case ServerCentric:
		return servercentric.NewReader(cfg, conn)
	default:
		return nil, fmt.Errorf("harness: unknown protocol %q", p)
	}
}
