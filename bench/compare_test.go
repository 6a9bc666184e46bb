package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestVerdict(t *testing.T) {
	bound := 0.1
	lat := specMetric{Name: "latency_p50_ms", Better: "lower", Bound: &bound}
	parent := []float64{10, 10.2, 9.9, 10.1, 10, 9.8, 10.3, 10, 10.1, 9.9}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{6, 14, 8, 12, 10, 7, 13, 9, 11, 10}
	cases := []struct {
		name           string
		parent, change []float64
		want           string
	}{
		{"faster everywhere", parent, scale(parent, 0.8), improved},
		{"slower past the bound", parent, scale(parent, 1.2), regressed},
		{"same runs", parent, parent, unchanged},
		{"slower within the bound", parent, scale(parent, 1.05), unchanged},
		{"spread wider than the bound", noisy, scale(noisy, 0.97), unresolved},
	}
	for _, c := range cases {
		if got, _ := verdict(lat, c.parent, c.change); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// Higher-is-better metrics mirror the rule.
	gp := specMetric{Name: "goodput_mbps", Better: "higher", Bound: &bound}
	if got, _ := verdict(gp, parent, scale(parent, 0.8)); got != regressed {
		t.Errorf("goodput fell 20%%: verdict %s, want %s", got, regressed)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestCompareFlagsFailuresAndRegressions(t *testing.T) {
	bound := 0.1
	s := &spec{EndToEnd: []specMetric{{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: &bound}}}
	write := func(dir string, runs []result) {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, r := range runs {
			b, _ := json.Marshal(r)
			name := filepath.Join(dir, "rx-mcs0-1x4."+string(rune('a'+i)))
			if err := os.WriteFile(name, append([]byte("latency_p50_ms 1 ms\n"), b...), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	run := func(lat float64, failed int) result {
		return result{Correct: true, Attempted: 100, Failed: failed,
			Metrics: map[string]metric{"latency_p50_ms": {lat, "ms"}}}
	}
	dir := t.TempDir()
	write(filepath.Join(dir, "parent"), []result{run(5, 0), run(5.1, 0), run(4.9, 0)})
	write(filepath.Join(dir, "same"), []result{run(5, 0), run(5.05, 0), run(4.95, 0)})
	write(filepath.Join(dir, "slow"), []result{run(6, 0), run(6.1, 0), run(5.9, 0)})
	write(filepath.Join(dir, "lossy"), []result{run(5, 1), run(5, 0), run(5, 0)})
	parent, err := readRuns(filepath.Join(dir, "parent"))
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]bool{"same": true, "slow": false, "lossy": false} {
		change, err := readRuns(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if got := compare(s, parent, change, &out); got != want {
			t.Errorf("%s: acceptable=%v, want %v\n%s", name, got, want, out.String())
		}
	}
}
