// Package sim is the Monte-Carlo experiment harness that regenerates the
// paper's evaluation: each experiment E1-E12 (see DESIGN.md for the mapping
// onto the paper's claims) is a function from Options to a Table of results
// that cmd/mimonet-sim renders and EXPERIMENTS.md records.
package sim

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Table is a rectangular numeric result with labelled columns.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]float64
	// Notes carries caveats (e.g. Monte-Carlo trial counts).
	Notes []string
}

// AddRow appends a row, which must match the column count.
func (t *Table) AddRow(vals ...float64) error {
	if len(vals) != len(t.Columns) {
		return fmt.Errorf("sim: row has %d values, table %q has %d columns", len(vals), t.ID, len(t.Columns))
	}
	t.Rows = append(t.Rows, vals)
	return nil
}

// Render writes an aligned plain-text table.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	cells := make([][]string, len(t.Rows))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for i, v := range row {
			cells[r][i] = formatCell(v)
			if len(cells[r][i]) > widths[i] {
				widths[i] = len(cells[r][i])
			}
		}
	}
	var b strings.Builder
	for i, c := range t.Columns {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%*s", widths[i], c)
	}
	b.WriteByte('\n')
	for r := range cells {
		for i, c := range cells[r] {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatCell(v float64) string {
	switch {
	case math.IsNaN(v):
		return "-"
	case math.IsInf(v, 1):
		return "inf"
	case math.IsInf(v, -1):
		return "-inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e6:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 0.01 && math.Abs(v) < 1e5:
		return fmt.Sprintf("%.4g", v)
	default:
		return fmt.Sprintf("%.3e", v)
	}
}

// Options tunes an experiment run. The zero value is invalid; use
// DefaultOptions.
type Options struct {
	// Seed drives all randomness.
	Seed int64
	// Packets is the Monte-Carlo packet (or trial) count per sweep point.
	Packets int
	// PayloadLen is the MAC payload size in octets.
	PayloadLen int
	// Quick shrinks sweeps for smoke tests and benchmarks.
	Quick bool
	// Scenario restricts fault-injection experiments (E22) to one named
	// faults.Scenario; empty runs the full registry.
	Scenario string
	// Workers bounds the montecarlo worker pool for the sharded experiments
	// (E1-E5, E8-E10): 0 (the default) selects GOMAXPROCS, 1 forces the
	// legacy serial path. Results are bit-identical at every worker count —
	// each shard owns its random stream and shard counters merge in index
	// order (see internal/montecarlo).
	Workers int
}

// DefaultOptions returns the settings used for EXPERIMENTS.md, which are
// mimonet-sim's flag defaults.
func DefaultOptions() Options {
	return Options{Seed: 1, Packets: 200, PayloadLen: 500}
}

// Runner is an experiment entry point.
type Runner func(Options) (*Table, error)

// registry of experiments, populated by the e*.go files.
var registry = map[string]Runner{}

func register(id string, r Runner) {
	registry[strings.ToLower(id)] = r
}

// Lookup returns the runner for an experiment ID (case-insensitive).
func Lookup(id string) (Runner, error) {
	r, ok := registry[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("sim: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return r, nil
}

// IDs lists the registered experiments in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool {
		// e1 < e2 < ... < e10 < e11: compare numeric suffix.
		return expNum(out[i]) < expNum(out[j])
	})
	return out
}

func expNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}
