package core_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/byzantine"
	"repro/internal/core"
	"repro/internal/object"
	"repro/internal/quorum"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
)

// TestPipelinedWriteNeedsReaderFlush is the witness that a pipelined
// WRITE is regular only for readers that share the writer's flush. At
// S = 4, t = b = 1, object 1 is stale (it answers reads with the
// initial state), PW(2) never reaches object 3, W(2) is still in
// transit when the pipelined Write(v2) returns, and object 0 answers
// the reader last. A reader that does not flush decides on objects
// 1, 2 and 3, which hold nothing newer than write 1: it returns the
// stale ⟨1,v1⟩ although Write(v2) has returned, for the safe and the
// regular reader with the fast path on and off. Flushing first
// installs tuple(2) at objects 0 and 2, and the read returns ⟨2,v2⟩.
func TestPipelinedWriteNeedsReaderFlush(t *testing.T) {
	for _, regular := range []bool{false, true} {
		for _, fast := range []bool{false, true} {
			for _, flush := range []bool{false, true} {
				name := fmt.Sprintf("%s/fast=%v/flush=%v", map[bool]string{false: "safe", true: "regular"}[regular], fast, flush)
				t.Run(name, func(t *testing.T) {
					want := types.TSVal{TS: 1, Val: types.Value("v1")}
					if flush {
						want = types.TSVal{TS: 2, Val: types.Value("v2")}
					}
					if got := pipelinedWitness(t, regular, fast, flush); !got.Equal(want) {
						t.Fatalf("read = %v, want %v", got, want)
					}
				})
			}
		}
	}
}

// pipelinedWitness runs the witness schedule and returns what the READ
// decided.
func pipelinedWitness(t *testing.T, regular, fast, flush bool) types.TSVal {
	t.Helper()
	cfg := quorum.Optimal(1, 1, 1)
	writer, reader := transport.Writer(), transport.Reader(0)
	// Object 0 is slow to the reader: its replies are delivered only
	// when nothing else is deliverable.
	net := simnet.New(func(d []simnet.Pending) int {
		for i, p := range d {
			if p.From != transport.Object(0) || p.To != reader {
				return i
			}
		}
		return 0
	})
	t.Cleanup(func() { net.Close() })
	for i := 0; i < cfg.S; i++ {
		id := types.ObjectID(i)
		var h transport.Handler
		switch {
		case i == 1 && regular:
			h = byzantine.NewRegularStale(id, cfg.R)
		case i == 1:
			h = byzantine.NewSafeStale(id, cfg.R)
		case regular:
			h = object.NewRegular(id, cfg.R)
		default:
			h = object.NewSafe(id, cfg.R)
		}
		if err := net.Serve(transport.Object(id), h); err != nil {
			t.Fatal(err)
		}
	}
	wconn, err := net.Register(writer)
	if err != nil {
		t.Fatal(err)
	}
	rconn, err := net.Register(reader)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewWriter(cfg, wconn)
	if err != nil {
		t.Fatal(err)
	}
	var r interface {
		Read(context.Context) (types.TSVal, error)
	}
	if regular {
		rr, err := core.NewRegularReader(cfg, rconn, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		rr.SetFastPath(fast)
		r = rr
	} else {
		sr, err := core.NewSafeReader(cfg, rconn, 0)
		if err != nil {
			t.Fatal(err)
		}
		sr.SetFastPath(fast)
		r = sr
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	run := func(what string, op func() error) {
		t.Helper()
		task := net.Go(op)
		for !task.Done() && net.Step() {
		}
		if !task.Done() {
			t.Fatalf("%s stalled", what)
		}
		if err := task.Err(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	run("write v1", func() error { return w.Write(ctx, types.Value("v1")) })
	net.Run()
	w.SetPipelined(true)
	net.Block(writer, transport.Object(3)) // PW(2) and W(2) never reach object 3
	run("write v2", func() error { return w.Write(ctx, types.Value("v2")) })
	for i := 0; i < 3; i++ { // W(2) stays in transit
		net.Block(writer, transport.Object(types.ObjectID(i)))
	}
	if flush {
		for i := 0; i < 3; i++ {
			net.Unblock(writer, transport.Object(types.ObjectID(i)))
		}
		run("flush", func() error { return w.Flush(ctx) })
	}
	var got types.TSVal
	run("read", func() (err error) {
		got, err = r.Read(ctx)
		return err
	})
	return got
}
