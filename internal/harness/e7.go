package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/types"
)

// E7Row records message complexity per operation as S grows.
type E7Row struct {
	Protocol   Protocol
	T, B, S    int
	WriteMsgs  float64
	WriteBytes float64
	ReadMsgs   float64
	ReadBytes  float64
}

// RunE7 measures messages and bytes per operation (requests plus
// acknowledgements) for every protocol across a fault-budget sweep.
// GV06 operations exchange ≤ 2 messages per object per round, so ≤ 4S
// messages per operation. Bytes are compact-codec bytes
// (wire.CompactSize), what tcpnet would put on a socket.
func RunE7(grid []struct{ T, B int }, opsPer int) ([]E7Row, *stats.Table) {
	if len(grid) == 0 {
		grid = []struct{ T, B int }{{1, 1}, {2, 2}, {3, 3}, {4, 4}}
	}
	if opsPer <= 0 {
		opsPer = 10
	}
	table := stats.NewTable(
		"E7 — message complexity per operation",
		"protocol", "t", "b", "S", "msgs/write", "KB/write", "msgs/read", "KB/read")
	var rows []E7Row
	for _, p := range AllProtocols() {
		for _, g := range grid {
			row, err := runE7One(p, g.T, g.B, opsPer)
			if err != nil {
				table.AddRow(string(p), g.T, g.B, "-", "ERR", err.Error(), "-", "-")
				continue
			}
			rows = append(rows, row)
			table.AddRow(string(p), g.T, g.B, row.S,
				row.WriteMsgs, row.WriteBytes/1024, row.ReadMsgs, row.ReadBytes/1024)
		}
	}
	return rows, table
}

func runE7One(p Protocol, t, b, ops int) (E7Row, error) {
	row := E7Row{Protocol: p, T: t, B: b}
	spec := Spec{Protocol: p, T: t, B: b, Readers: 1}
	cl, err := Build(spec)
	if err != nil {
		return row, err
	}
	defer cl.Close()
	row.S = cl.Cfg.S
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	w, r := cl.Writer(), cl.Reader(0)
	// Warm up so reads see data and lazy connections exist.
	if err := w.Write(ctx, types.Value("warm")); err != nil {
		return row, err
	}
	if _, err := r.Read(ctx); err != nil {
		return row, err
	}
	// Clients return as soon as they have a quorum of acknowledgements;
	// the stragglers are still in flight. Settle after every operation
	// so each counter window holds exactly one operation's traffic
	// (server-centric echoes included). A fixed nap is not enough on a
	// loaded machine (parallel test packages under -race), so wait for
	// the counter to go quiescent: unchanged across two consecutive
	// samples, with a hard cap.
	settle := func() {
		deadline := time.Now().Add(250 * time.Millisecond)
		last := cl.Counter.Messages()
		for quiet := 0; quiet < 2 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
			if now := cl.Counter.Messages(); now == last {
				quiet++
			} else {
				last = now
				quiet = 0
			}
		}
	}
	settle()

	var wm, wb, rm, rb float64
	for i := 0; i < ops; i++ {
		before, beforeB := cl.Counter.Messages(), cl.Counter.Bytes()
		if err := w.Write(ctx, types.Value(fmt.Sprintf("v%d", i))); err != nil {
			return row, err
		}
		settle()
		wm += float64(cl.Counter.Messages() - before)
		wb += float64(cl.Counter.Bytes() - beforeB)

		before, beforeB = cl.Counter.Messages(), cl.Counter.Bytes()
		if _, err := r.Read(ctx); err != nil {
			return row, err
		}
		settle()
		rm += float64(cl.Counter.Messages() - before)
		rb += float64(cl.Counter.Bytes() - beforeB)
	}
	n := float64(ops)
	row.WriteMsgs, row.WriteBytes = wm/n, wb/n
	row.ReadMsgs, row.ReadBytes = rm/n, rb/n
	return row, nil
}
