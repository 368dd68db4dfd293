package stats

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wire"
)

func TestCounterCounts(t *testing.T) {
	c := NewCounter()
	msg := wire.BaselineReadReq{Attempt: 1}
	for i := 0; i < 5; i++ {
		c.OnMessage(transport.Reader(0), transport.Object(0), msg)
	}
	if got := c.Messages(); got != 5 {
		t.Errorf("Messages = %d, want 5", got)
	}
	if c.Bytes() <= 0 {
		t.Error("Bytes must be positive")
	}
	byType := c.ByType()
	if byType["wire.BaselineReadReq"] != 5 {
		t.Errorf("ByType = %v", byType)
	}
	c.Reset()
	if c.Messages() != 0 || c.Bytes() != 0 {
		t.Error("Reset must zero counts")
	}
}

func TestCounterConcurrent(t *testing.T) {
	c := NewCounter()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				c.OnMessage(transport.Writer(), transport.Object(0), wire.WAck{ObjectID: 0, TS: 1})
			}
		}()
	}
	wg.Wait()
	if got := c.Messages(); got != 800 {
		t.Errorf("Messages = %d, want 800", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{3, 1, 2, 5, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || s.Mean != 3 || s.P50 != 3 {
		t.Errorf("Summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 || z.Mean != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestQuickSummarizeBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64() * 100
		}
		s := Summarize(xs)
		return s.N == n &&
			s.Min <= s.P50 && s.P50 <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max &&
			s.P50 <= s.P95 && s.P95 <= s.P99 && s.P99 <= s.Max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDurationsAndInts(t *testing.T) {
	d := Durations([]time.Duration{time.Millisecond, 2 * time.Millisecond})
	if d[0] != 1 || d[1] != 2 {
		t.Errorf("Durations = %v", d)
	}
	i := Ints([]int{7, 9})
	if i[0] != 7 || i[1] != 9 {
		t.Errorf("Ints = %v", i)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "col-a", "b")
	tb.AddRow("x", 1)
	tb.AddRow("longer-cell", 2.5)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Error("missing title")
	}
	if !strings.Contains(out, "longer-cell") || !strings.Contains(out, "2.50") {
		t.Errorf("missing cells:\n%s", out)
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows = %d", tb.Rows())
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Errorf("rendered %d lines:\n%s", len(lines), out)
	}
	// Columns align: every data line at least as wide as the header.
	header := lines[1]
	for _, l := range lines[2:] {
		if len(l) < len("col-a") {
			t.Errorf("misaligned line %q vs header %q", l, header)
		}
	}
}

func TestCounterWeighsByCompactSize(t *testing.T) {
	c := NewCounter()
	small := wire.BaselineReadReq{}
	h := types.NewHistory()
	for ts := types.TS(1); ts <= 20; ts++ {
		w := types.WTuple{TSVal: types.TSVal{TS: ts, Val: types.Value("xxxxxxxx")}, TSR: types.NewTSRMatrix()}
		h[ts] = types.HistEntry{PW: w.TSVal, W: &w}
	}
	big := wire.ReadAckHist{History: h}
	c.OnMessage(transport.Reader(0), transport.Object(0), small)
	smallBytes := c.Bytes()
	c.Reset()
	c.OnMessage(transport.Object(0), transport.Reader(0), big)
	if c.Bytes() <= smallBytes {
		t.Error("history ack must weigh more than a bare request")
	}
}
