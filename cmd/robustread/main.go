// Command robustread runs an interactive demonstration cluster: an
// optimally resilient (S = 2t+b+1) robust register over in-process base
// objects — in memory or over loopback TCP — with optional crash and
// Byzantine fault injection, then executes a scripted write/read
// session and prints what happened.
//
// Usage:
//
//	robustread [-t 2] [-b 1] [-semantics regular] [-tcp] [-byz high-forger] [-crash 1] [-ops 8]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/byzantine"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/quorum"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/transport/tcpnet"
	"repro/internal/types"
)

// network abstracts the two substrates the demo can run on.
type network interface {
	Serve(id transport.NodeID, h transport.Handler) error
	Register(id transport.NodeID) (transport.Conn, error)
	AddTap(t transport.Tap)
}

func main() {
	os.Exit(run())
}

func run() int {
	t := flag.Int("t", 2, "fault budget t")
	b := flag.Int("b", 1, "Byzantine budget b")
	semantics := flag.String("semantics", "regular", "safe | regular")
	useTCP := flag.Bool("tcp", false, "run base objects on loopback TCP instead of in memory")
	byzKind := flag.String("byz", "", "inject b Byzantine objects: high-forger | stale | mute")
	crash := flag.Int("crash", 0, "crash this many objects before starting (≤ t−b)")
	ops := flag.Int("ops", 8, "write/read pairs to run")
	flag.Parse()

	cfg := quorum.Optimal(*t, *b, 1)
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "robustread:", err)
		return 2
	}
	fmt.Printf("cluster: %v (optimal resilience S = 2t+b+1)\n", cfg)

	var net network
	var closer interface{ Close() error }
	if *useTCP {
		n := tcpnet.New()
		net, closer = n, n
		fmt.Println("transport: loopback TCP, one listener per object")
	} else {
		n := memnet.New()
		net, closer = n, n
		fmt.Println("transport: in-memory asynchronous message passing")
	}
	defer closer.Close()
	counter := stats.NewCounter()
	net.AddTap(counter)

	// Install objects: honest safe/regular automata, with the top b
	// replaced by the selected Byzantine strategy.
	byzSlots := map[int]bool{}
	if *byzKind != "" {
		for i := 0; i < *b; i++ {
			byzSlots[cfg.S-1-i] = true
		}
	}
	for i := 0; i < cfg.S; i++ {
		id := types.ObjectID(i)
		var h transport.Handler
		switch {
		case byzSlots[i]:
			h = byzHandler(*byzKind, *semantics, id, cfg.R)
			fmt.Printf("object %d: BYZANTINE (%s)\n", i, *byzKind)
		case *semantics == "safe":
			h = object.NewSafe(id, cfg.R)
		default:
			h = object.NewRegular(id, cfg.R)
		}
		if h == nil {
			fmt.Fprintf(os.Stderr, "robustread: unknown -byz %q\n", *byzKind)
			return 2
		}
		if err := net.Serve(transport.Object(id), h); err != nil {
			fmt.Fprintln(os.Stderr, "robustread: serve:", err)
			return 1
		}
	}
	if *crash > 0 {
		mn, ok := net.(*memnet.Net)
		if !ok {
			fmt.Fprintln(os.Stderr, "robustread: -crash needs the in-memory transport")
			return 2
		}
		for i := 0; i < *crash; i++ {
			mn.Crash(transport.Object(types.ObjectID(i)))
			fmt.Printf("object %d: CRASHED\n", i)
		}
	}

	wconn, err := net.Register(transport.Writer())
	if err != nil {
		fmt.Fprintln(os.Stderr, "robustread:", err)
		return 1
	}
	rconn, err := net.Register(transport.Reader(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "robustread:", err)
		return 1
	}
	w, err := core.NewWriter(cfg, wconn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "robustread:", err)
		return 1
	}

	var read func(ctx context.Context) (types.TSVal, core.OpStats, error)
	if *semantics == "safe" {
		r, err := core.NewSafeReader(cfg, rconn, 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "robustread:", err)
			return 1
		}
		read = func(ctx context.Context) (types.TSVal, core.OpStats, error) {
			v, err := r.Read(ctx)
			return v, r.LastStats(), err
		}
	} else {
		r, err := core.NewRegularReader(cfg, rconn, 0, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "robustread:", err)
			return 1
		}
		read = func(ctx context.Context) (types.TSVal, core.OpStats, error) {
			v, err := r.Read(ctx)
			return v, r.LastStats(), err
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fmt.Println()
	okAll := true
	for i := 1; i <= *ops; i++ {
		val := types.Value(fmt.Sprintf("payload-%03d", i))
		if err := w.Write(ctx, val); err != nil {
			fmt.Fprintln(os.Stderr, "robustread: write:", err)
			return 1
		}
		ws := w.LastStats()
		got, rs, err := read(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "robustread: read:", err)
			return 1
		}
		ok := got.Val.Equal(val)
		okAll = okAll && ok
		status := "ok"
		if !ok {
			status = fmt.Sprintf("MISMATCH (got %v)", got)
		}
		fmt.Printf("op %2d: WRITE %q (%d rounds, %v)  READ → ⟨%d,%q⟩ (%d rounds, %v)  %s\n",
			i, val, ws.Rounds, ws.Duration.Round(time.Microsecond),
			got.TS, string(got.Val), rs.Rounds, rs.Duration.Round(time.Microsecond), status)
	}
	fmt.Printf("\ntotal network traffic: %d messages, %.1f KB\n",
		counter.Messages(), float64(counter.Bytes())/1024)
	if !okAll {
		fmt.Println("some reads returned stale or wrong values — check the fault configuration")
		return 1
	}
	fmt.Println("every read returned the last written value, in exactly 2 round-trips")
	return 0
}

func byzHandler(kind, semantics string, id types.ObjectID, readers int) transport.Handler {
	forged := types.Value("forged")
	if semantics == "safe" {
		switch kind {
		case "high-forger":
			return byzantine.NewSafeHighForger(id, readers, 1000, forged, nil)
		case "stale":
			return byzantine.NewSafeStale(id, readers)
		case "mute":
			return byzantine.Mute{}
		}
		return nil
	}
	switch kind {
	case "high-forger":
		return byzantine.NewRegularHighForger(id, readers, 1000, forged)
	case "stale":
		return byzantine.NewRegularStale(id, readers)
	case "mute":
		return byzantine.Mute{}
	}
	return nil
}
