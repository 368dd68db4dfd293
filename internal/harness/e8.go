package harness

import (
	"context"
	"fmt"
	"time"

	"repro/internal/stats"
	"repro/internal/types"
)

// E8Row records history cost after a number of writes.
type E8Row struct {
	Variant       string
	Writes        int
	ReadBytes     float64 // bytes shipped per read
	HistoryLenAvg float64 // entries retained per object
}

// RunE8 measures the §5.1 optimization: bytes shipped per READ and
// history entries retained per object as the write count grows, for
// (a) the unoptimized regular protocol (full histories), (b) the
// cached-suffix optimization, and (c) the optimization plus garbage
// collection. Bytes are compact-codec bytes (wire.CompactSize). The
// paper flags the full-history assumption as a storage
// exhaustion risk (§1); this is the measurement.
func RunE8(t, b int, writeCounts []int) ([]E8Row, *stats.Table) {
	if len(writeCounts) == 0 {
		writeCounts = []int{10, 50, 100, 200}
	}
	table := stats.NewTable(
		fmt.Sprintf("E8 — §5.1 history optimization (t=%d b=%d)", t, b),
		"variant", "writes", "KB shipped/read", "history entries/object")
	var rows []E8Row
	variants := []struct {
		name string
		p    Protocol
		gc   bool
	}{
		{"full-history", GV06Regular, false},
		{"cached-suffix (§5.1)", GV06RegularOpt, false},
		{"cached-suffix + GC", GV06RegularOpt, true},
	}
	for _, v := range variants {
		for _, n := range writeCounts {
			row, err := runE8One(v.p, v.gc, t, b, n)
			row.Variant = v.name
			if err != nil {
				table.AddRow(v.name, n, "ERR", err.Error())
				continue
			}
			rows = append(rows, row)
			table.AddRow(v.name, n, row.ReadBytes/1024, row.HistoryLenAvg)
		}
	}
	return rows, table
}

func runE8One(p Protocol, gc bool, t, b, writes int) (E8Row, error) {
	row := E8Row{Writes: writes}
	spec := Spec{Protocol: p, T: t, B: b, Readers: 1, GC: gc}
	cl, err := Build(spec)
	if err != nil {
		return row, err
	}
	defer cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	w, r := cl.Writer(), cl.Reader(0)
	for i := 1; i <= writes; i++ {
		if err := w.Write(ctx, types.Value(fmt.Sprintf("payload-%06d", i))); err != nil {
			return row, err
		}
		// Interleave reads so the cache (and hence GC watermark) moves.
		if i%10 == 0 {
			if _, err := r.Read(ctx); err != nil {
				return row, err
			}
		}
	}
	before := cl.Counter.Bytes()
	if _, err := r.Read(ctx); err != nil {
		return row, err
	}
	row.ReadBytes = float64(cl.Counter.Bytes() - before)

	total := 0
	for _, obj := range cl.RegularObjects() {
		total += obj.HistoryLen()
	}
	if n := len(cl.RegularObjects()); n > 0 {
		row.HistoryLenAvg = float64(total) / float64(n)
	}
	return row, nil
}
