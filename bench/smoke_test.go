package main

import (
	"io"
	"testing"
)

// TestMetricsMatchBenchmarkJSON runs every workload briefly, untraced and
// traced, and checks that the metrics printed are exactly those
// BENCHMARK.json declares, with the same units. It asserts nothing about
// their values.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	s, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := s.EndToEnd
			if trace {
				want = s.PerLayer
			}
			res, err := runBench(options{workload: w.name, seed: 1, seconds: 1, trace: trace}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if res.Attempted == 0 {
				t.Errorf("%s trace=%v: attempted nothing", w.name, trace)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s not printed", w.name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: %s printed in %q, declared in %q", w.name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}
