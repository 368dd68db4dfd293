package harness

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/quorum"
	"repro/internal/stats"
	"repro/internal/transport"
	"repro/internal/transport/simnet"
	"repro/internal/types"
	"repro/internal/wire"
)

// E4Row is one protocol's measured complexity at a configuration.
type E4Row struct {
	Protocol    Protocol
	S           int
	WriteRounds int
	ReadRounds  int
	ReadMsgs    float64 // client messages per read (sent + acks)
	ReadBytes   float64
	LatencyP50  float64 // ms, with Spec.Delay per link
}

// RunE4 compares all protocols at fixed (t, b): rounds per operation,
// messages and bytes per read, and read latency under a constant
// per-link delay. The shape to reproduce: GV06 reads are 2 rounds at
// optimal resilience; [1]-style non-mutating reads pay up to b+1;
// authenticated and >2t+2b configurations are 1 round but cost trust or
// objects; ABD is 1 round but tolerates no Byzantine failures.
func RunE4(t, b, reads int, delay time.Duration) ([]E4Row, *stats.Table) {
	if reads <= 0 {
		reads = 20
	}
	if delay <= 0 {
		delay = 200 * time.Microsecond
	}
	var rows []E4Row
	table := stats.NewTable(
		fmt.Sprintf("E4 — protocol comparison at t=%d b=%d (delay %v/link)", t, b, delay),
		"protocol", "S", "write rounds", "read rounds", "msgs/read", "KB/read", "read p50 (ms)", "tolerates byz?")
	for _, p := range AllProtocols() {
		spec := Spec{Protocol: p, T: t, B: b, Readers: 1, Delay: delay}
		row, err := runE4One(spec, reads)
		if err != nil {
			table.AddRow(string(p), "-", "-", "-", "-", "-", "-", "ERR: "+err.Error())
			continue
		}
		rows = append(rows, row)
		byzOK := "yes"
		if p == ABD || p == ABDAtomic {
			byzOK = "no (b=0 model)"
		}
		if p == Auth {
			byzOK = "yes (signatures)"
		}
		table.AddRow(string(p), row.S, row.WriteRounds, row.ReadRounds,
			row.ReadMsgs, row.ReadBytes/1024, row.LatencyP50, byzOK)
	}
	return rows, table
}

func runE4One(spec Spec, reads int) (E4Row, error) {
	cl, err := Build(spec)
	if err != nil {
		return E4Row{}, err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w, r := cl.Writer(), cl.Reader(0)
	if err := w.Write(ctx, types.Value("warm")); err != nil {
		return E4Row{}, err
	}
	row := E4Row{Protocol: spec.Protocol, S: cl.Cfg.S, WriteRounds: w.LastStats().Rounds}

	var lat []time.Duration
	var msgs, bytes float64
	for i := 0; i < reads; i++ {
		if i%4 == 0 {
			if err := w.Write(ctx, types.Value(fmt.Sprintf("v%d", i))); err != nil {
				return E4Row{}, err
			}
		}
		before, beforeB := cl.Counter.Messages(), cl.Counter.Bytes()
		start := time.Now()
		if _, err := r.Read(ctx); err != nil {
			return E4Row{}, err
		}
		lat = append(lat, time.Since(start))
		msgs += float64(cl.Counter.Messages() - before)
		bytes += float64(cl.Counter.Bytes() - beforeB)
		if rr := r.LastStats().Rounds; rr > row.ReadRounds {
			row.ReadRounds = rr
		}
	}
	row.ReadMsgs = msgs / float64(reads)
	row.ReadBytes = bytes / float64(reads)
	row.LatencyP50 = stats.Summarize(stats.Durations(lat)).P50
	return row, nil
}

// E4WorstCaseRow records the staged-release worst-case read rounds.
type E4WorstCaseRow struct {
	B                int
	MultiRoundRounds int
	GV06Rounds       int
}

// RunE4WorstCase drives the adversarial schedule that exhibits the
// b+1-round worst case of non-mutating readers ([1]) against the
// 2-round GV06 reader, for b = t = 1..maxB:
//
//   - the write is delivered to only S−t objects, b of which are
//     Byzantine staleers that acknowledge without storing — leaving
//     exactly t+1−(t−b)... i.e. a bare minimum of correct holders;
//   - all but one correct holder's replies to the reader are held in
//     transit; each time the reader issues another query round, one
//     more holder is released.
//
// The multi-round reader needs a new round per released holder until
// b+1 support accumulates; the GV06 reader simply keeps waiting within
// its second round (the replies count whenever they arrive), so its
// round count stays 2.
func RunE4WorstCase(maxB int) ([]E4WorstCaseRow, *stats.Table) {
	if maxB <= 0 {
		maxB = 3
	}
	var rows []E4WorstCaseRow
	table := stats.NewTable(
		"E4b — worst-case read rounds under staged-release schedule (t=b)",
		"t=b", "S", "multiround read rounds (≤ b+1)", "gv06-safe read rounds")
	for b := 1; b <= maxB; b++ {
		t := b
		mr, err1 := worstCaseRounds(MultiRound, t, b)
		gv, err2 := worstCaseRounds(GV06Safe, t, b)
		if err1 != nil || err2 != nil {
			table.AddRow(b, objectCount(MultiRound, t, b), errStr(err1), errStr(err2))
			continue
		}
		rows = append(rows, E4WorstCaseRow{B: b, MultiRoundRounds: mr, GV06Rounds: gv})
		table.AddRow(b, objectCount(MultiRound, t, b), mr, gv)
	}
	return rows, table
}

func errStr(err error) string {
	if err == nil {
		return "-"
	}
	return "ERR: " + err.Error()
}

// worstCaseRounds runs the staged-release schedule against one protocol
// (MultiRound or GV06Safe) on the deterministic simulator with FIFO
// delivery and returns the read's round count. The schedule is a pure
// function of the protocol, so every run measures the same rounds.
func worstCaseRounds(p Protocol, t, b int) (int, error) {
	s := objectCount(p, t, b)
	cfg := quorum.Config{S: s, T: t, B: b, R: 1}
	net := simnet.New(simnet.FIFO())
	defer net.Close()
	// Byzantine staleers occupy the top b slots; the write is prevented
	// from reaching objects 0..b-1 (their deliveries stay in transit),
	// so the correct holders are exactly objects b..s-b-1 (t+1 of them
	// when t=b: s=3b+1 → holders b..2b, count b+1).
	for i := 0; i < s; i++ {
		id := types.ObjectID(i)
		h := honestHandler(p, id, cfg, false, &Cluster{})
		if i >= s-b {
			h = byzHandler(p, ByzStale, id, cfg)
		}
		if err := net.Serve(transport.Object(id), h); err != nil {
			return 0, err
		}
	}
	writerID, readerID := transport.Writer(), transport.Reader(0)
	wconn, err := net.Register(writerID)
	if err != nil {
		return 0, err
	}
	rconn, err := net.Register(readerID)
	if err != nil {
		return 0, err
	}
	w, err := buildWriter(p, cfg, baseline.AuthKeys{}, wconn)
	if err != nil {
		return 0, err
	}
	r, err := buildReader(p, cfg, baseline.AuthKeys{}, rconn, 0)
	if err != nil {
		return 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for i := 0; i < b; i++ {
		net.Block(writerID, transport.Object(types.ObjectID(i)))
	}
	write := net.Go(func() error { return w.Write(ctx, types.Value("target")) })
	net.Run()
	if !write.Done() {
		return 0, fmt.Errorf("worst-case write stalled")
	}
	if err := write.Err(); err != nil {
		return 0, fmt.Errorf("worst-case write: %w", err)
	}

	// Holders are objects b..s-b-1. Hold every holder's replies except
	// the first; release one per query round the reader starts after
	// its first, observed through its requests to object 0.
	var holders []types.ObjectID
	for i := b + 1; i < s-b; i++ {
		holders = append(holders, types.ObjectID(i))
	}
	for _, h := range holders {
		net.Block(transport.Object(h), readerID)
	}
	seen := make(map[int64]bool) // query rounds, by attempt or tsr; the tap runs under the simulator's lock
	var rounds atomic.Int64
	net.AddTap(transport.TapFunc(func(from, to transport.NodeID, payload wire.Msg) {
		if from != readerID || to != transport.Object(0) {
			return
		}
		var key int64
		switch m := payload.(type) {
		case wire.BaselineReadReq:
			key = int64(m.Attempt)
		case wire.ReadReq:
			key = int64(m.TSR)
		default:
			return
		}
		if !seen[key] {
			seen[key] = true
			rounds.Add(1)
		}
	}))

	var got types.TSVal
	read := net.Go(func() (err error) {
		got, err = r.Read(ctx)
		return err
	})
	released := 0
	release := func() {
		net.Unblock(transport.Object(holders[released]), readerID)
		released++
	}
	for !read.Done() {
		// Between steps every client is blocked, so the round count is
		// exact and a released holder's held replies are delivered
		// before any reply to a later round.
		for released < len(holders) && int64(released) < rounds.Load()-1 {
			release()
		}
		if net.Step() {
			continue
		}
		// Nothing deliverable and the read still waits: it waits WITHIN
		// a round (the GV06 reader's second round counts replies
		// whenever they arrive), so release the next holder. The
		// multi-round reader never gets here: each of its rounds
		// completes on the objects that are not held.
		if released == len(holders) {
			return 0, fmt.Errorf("worst-case read stalled with every holder released")
		}
		release()
	}
	if err := read.Err(); err != nil {
		return 0, fmt.Errorf("worst-case read: %w", err)
	}
	if !got.Val.Equal(types.Value("target")) {
		return 0, fmt.Errorf("worst-case read returned %v, want target (safety!)", got)
	}
	return r.LastStats().Rounds, nil
}
