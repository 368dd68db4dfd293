// Package stats provides the measurement plumbing of the benchmark
// harness: a transport tap that counts messages and bytes, duration and
// round summaries, and a plain-text table renderer for the experiment
// reports in EXPERIMENTS.md.
package stats

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Counter is a transport.Tap that accumulates message and byte counts,
// optionally split per message type. Safe for concurrent use.
//
// It is a thin adapter over an obs scope: the totals and per-type
// counts are obs.Counters, so a tap mounted on a deployment's registry
// (NewCounterAt) shows up in the telemetry snapshot for free, while
// the standalone constructor keeps the historical self-contained
// behavior.
type Counter struct {
	msgs  *obs.Counter
	bytes *obs.Counter

	mu      sync.Mutex
	byScope *obs.Scope // per-type counters are created here on demand
	byType  map[string]*obs.Counter
}

// NewCounter returns a counter that weighs messages by their encoded
// size (wire.CompactSize — the bytes tcpnet puts on a socket), backed by
// a private registry scope.
func NewCounter() *Counter {
	return NewCounterAt(obs.NewRegistry().Root().Scope("tap"))
}

// NewCounterAt returns a counter mounted on the given scope: msgs and
// bytes counters plus a by_type child scope with one counter per wire
// message type. A nil scope falls back to a private registry, so the
// tap counts either way.
func NewCounterAt(scope *obs.Scope) *Counter {
	if scope == nil {
		scope = obs.NewRegistry().Root().Scope("tap")
	}
	return &Counter{
		msgs:    scope.Counter("msgs"),
		bytes:   scope.Counter("bytes"),
		byScope: scope.Scope("by_type"),
		byType:  make(map[string]*obs.Counter),
	}
}

var _ transport.Tap = (*Counter)(nil)

// OnMessage implements transport.Tap.
func (c *Counter) OnMessage(_, _ transport.NodeID, payload wire.Msg) {
	size := wire.CompactSize(payload)
	c.msgs.Inc()
	c.bytes.Add(int64(size))
	name := fmt.Sprintf("%T", payload)
	c.mu.Lock()
	tc, ok := c.byType[name]
	if !ok {
		tc = c.byScope.Counter(name)
		c.byType[name] = tc
	}
	c.mu.Unlock()
	tc.Inc()
}

// Messages returns the message count so far.
func (c *Counter) Messages() int { return int(c.msgs.Load()) }

// Bytes returns the byte count so far.
func (c *Counter) Bytes() int { return int(c.bytes.Load()) }

// Reset zeroes all counts.
func (c *Counter) Reset() {
	c.msgs.Reset()
	c.bytes.Reset()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, tc := range c.byType {
		tc.Reset()
	}
}

// ByType returns a copy of the per-type message counts.
func (c *Counter) ByType() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.byType))
	for k, tc := range c.byType {
		out[k] = int(tc.Load())
	}
	return out
}

// Summary aggregates a series of samples (rounds, latencies as float
// seconds, bytes, ...).
type Summary struct {
	N              int
	Min, Max, Mean float64
	P50, P95, P99  float64
}

// Summarize computes a Summary over samples (empty input yields zeros).
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	total := 0.0
	for _, v := range s {
		total += v
	}
	pct := func(p float64) float64 {
		idx := int(p * float64(len(s)-1))
		return s[idx]
	}
	return Summary{
		N:    len(s),
		Min:  s[0],
		Max:  s[len(s)-1],
		Mean: total / float64(len(s)),
		P50:  pct(0.50),
		P95:  pct(0.95),
		P99:  pct(0.99),
	}
}

// Durations converts time.Durations to float64 milliseconds for
// Summarize.
func Durations(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// Ints converts ints to float64 samples.
func Ints(xs []int) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x)
	}
	return out
}

// Table renders aligned plain-text tables for experiment output.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; cells are formatted with %v.
func (t *Table) AddRow(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.rows = append(t.rows, row)
}

// Rows returns the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}
