package baseline_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/transport/memnet"
	"repro/internal/types"
)

func ctx(t *testing.T) context.Context {
	t.Helper()
	c, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return c
}

func serveObjects(t *testing.T, net *memnet.Net, s int, byz map[int]transport.Handler) {
	t.Helper()
	for i := 0; i < s; i++ {
		h := byz[i]
		if h == nil {
			h = baseline.NewObject(types.ObjectID(i))
		}
		if err := net.Serve(transport.Object(types.ObjectID(i)), h); err != nil {
			t.Fatalf("serve %d: %v", i, err)
		}
	}
}

func serveTwoField(t *testing.T, net *memnet.Net, s int, byz map[int]transport.Handler) {
	t.Helper()
	for i := 0; i < s; i++ {
		h := byz[i]
		if h == nil {
			h = baseline.NewTwoFieldObject(types.ObjectID(i))
		}
		if err := net.Serve(transport.Object(types.ObjectID(i)), h); err != nil {
			t.Fatalf("serve %d: %v", i, err)
		}
	}
}

func register(t *testing.T, net *memnet.Net, id transport.NodeID) transport.Conn {
	t.Helper()
	conn, err := net.Register(id)
	if err != nil {
		t.Fatalf("register %v: %v", id, err)
	}
	return conn
}

func TestABDWriteRead(t *testing.T) {
	for _, atomic := range []bool{false, true} {
		t.Run(fmt.Sprintf("atomic=%v", atomic), func(t *testing.T) {
			cfg := quorum.Config{S: 5, T: 2, R: 1} // ABD: S = 2t+1, crash-only
			net := memnet.New()
			t.Cleanup(func() { net.Close() })
			serveObjects(t, net, cfg.S, nil)
			w := baseline.NewWriter(cfg, register(t, net, transport.Writer()))
			r := baseline.NewABDReader(cfg, register(t, net, transport.Reader(0)), atomic)
			for i := 1; i <= 4; i++ {
				val := types.Value(fmt.Sprintf("v%d", i))
				if err := w.Write(ctx(t), val); err != nil {
					t.Fatalf("write: %v", err)
				}
				got, err := r.Read(ctx(t))
				if err != nil {
					t.Fatalf("read: %v", err)
				}
				if !got.Val.Equal(val) {
					t.Fatalf("got %v want %q", got, val)
				}
			}
			if got := w.LastStats().Rounds; got != 1 {
				t.Errorf("ABD write rounds = %d, want 1", got)
			}
			wantReadRounds := 1
			if atomic {
				wantReadRounds = 2
			}
			if got := r.LastStats().Rounds; got != wantReadRounds {
				t.Errorf("ABD read rounds = %d, want %d", got, wantReadRounds)
			}
		})
	}
}

func TestABDSurvivesCrashes(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 2, R: 1} // ABD: S = 2t+1, crash-only
	net := memnet.New()
	t.Cleanup(func() { net.Close() })
	serveObjects(t, net, cfg.S, nil)
	net.Crash(transport.Object(0))
	net.Crash(transport.Object(4))
	w := baseline.NewWriter(cfg, register(t, net, transport.Writer()))
	r := baseline.NewABDReader(cfg, register(t, net, transport.Reader(0)), false)
	if err := w.Write(ctx(t), types.Value("x")); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := r.Read(ctx(t))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !got.Val.Equal(types.Value("x")) {
		t.Fatalf("got %v", got)
	}
}

func TestAuthRejectsForgeries(t *testing.T) {
	tt, b := 2, 2
	cfg := quorum.Optimal(tt, b, 1)
	keys, err := baseline.GenerateKeys()
	if err != nil {
		t.Fatal(err)
	}
	net := memnet.New()
	t.Cleanup(func() { net.Close() })
	byz := map[int]transport.Handler{
		0: baseline.NewForgerObject(0, 100, types.Value("forged")),
		1: baseline.NewForgerObject(1, 100, types.Value("forged")),
	}
	serveObjects(t, net, cfg.S, byz)

	w, err := baseline.NewAuthWriter(cfg, keys, register(t, net, transport.Writer()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := baseline.NewAuthReader(cfg, keys, register(t, net, transport.Reader(0)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		val := types.Value(fmt.Sprintf("v%d", i))
		if err := w.Write(ctx(t), val); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := r.Read(ctx(t))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !got.Val.Equal(val) {
			t.Fatalf("auth read got %v, want %q (forgery accepted!)", got, val)
		}
	}
	if got := r.LastStats().Rounds; got != 1 {
		t.Errorf("auth read rounds = %d, want 1", got)
	}
	if got := w.LastStats().Rounds; got != 1 {
		t.Errorf("auth write rounds = %d, want 1", got)
	}
}

func TestFastSafeOneRoundRead(t *testing.T) {
	tt, b := 2, 1
	cfg := quorum.Config{S: quorum.FastReadThreshold(tt, b) + 1, T: tt, B: b, R: 1}
	net := memnet.New()
	t.Cleanup(func() { net.Close() })
	byz := map[int]transport.Handler{
		3: baseline.NewForgerObject(3, 100, types.Value("forged")),
	}
	serveObjects(t, net, cfg.S, byz)
	w := baseline.NewWriter(cfg, register(t, net, transport.Writer()))
	r := baseline.NewFastSafeReader(cfg, register(t, net, transport.Reader(0)))
	for i := 1; i <= 3; i++ {
		val := types.Value(fmt.Sprintf("v%d", i))
		if err := w.Write(ctx(t), val); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := r.Read(ctx(t))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !got.Val.Equal(val) {
			t.Fatalf("got %v want %q", got, val)
		}
		if rounds := r.LastStats().Rounds; rounds != 1 {
			t.Errorf("fast-safe read %d rounds = %d, want 1", i, rounds)
		}
	}
}

func TestMultiRoundRead(t *testing.T) {
	tt, b := 2, 2
	cfg := quorum.Optimal(tt, b, 1)
	net := memnet.New()
	t.Cleanup(func() { net.Close() })
	byz := map[int]transport.Handler{
		2: baseline.NewStaleObject(2),
		6: baseline.NewPairsForgerObject(6, 100, types.Value("forged")),
	}
	serveTwoField(t, net, cfg.S, byz)
	w, err := baseline.NewMultiRoundWriter(cfg, register(t, net, transport.Writer()))
	if err != nil {
		t.Fatal(err)
	}
	r, err := baseline.NewMultiRoundReader(cfg, register(t, net, transport.Reader(0)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		val := types.Value(fmt.Sprintf("v%d", i))
		if err := w.Write(ctx(t), val); err != nil {
			t.Fatalf("write: %v", err)
		}
		got, err := r.Read(ctx(t))
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		if !got.Val.Equal(val) {
			t.Fatalf("got %v want %q", got, val)
		}
		if rounds := r.LastStats().Rounds; rounds > b+1 {
			t.Errorf("multi-round read %d used %d rounds, theory bound is b+1=%d", i, rounds, b+1)
		}
	}
	if got := w.LastStats().Rounds; got != 2 {
		t.Errorf("multi-round write rounds = %d, want 2", got)
	}
}

func TestMultiRoundReadFresh(t *testing.T) {
	cfg := quorum.Optimal(1, 1, 1)
	net := memnet.New()
	t.Cleanup(func() { net.Close() })
	serveTwoField(t, net, cfg.S, nil)
	r, err := baseline.NewMultiRoundReader(cfg, register(t, net, transport.Reader(0)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Read(ctx(t))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if !got.Val.IsBottom() {
		t.Fatalf("fresh read = %v, want ⊥", got)
	}
}
