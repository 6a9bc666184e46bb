package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json the comparison needs.
type spec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// readRuns loads every run in dir. A run is a file named
// <workload>.<anything> holding the benchmark's standard output; its last
// line is the result. Runs of a workload are returned in file-name order.
func readRuns(dir string) (map[string][]result, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	runs := map[string][]result{}
	for _, e := range entries {
		name := e.Name()
		wl, _, ok := strings.Cut(name, ".")
		if e.IsDir() || !ok {
			continue
		}
		r, err := readResult(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		runs[wl] = append(runs[wl], *r)
	}
	return runs, nil
}

func readResult(path string) (*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return nil, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return &r, nil
}

// Verdicts, per the rule in README.md. A per-layer metric has no bound,
// so it is never regressed, only worse.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	regressed  = "regressed"
	unresolved = "unresolved"
	worse      = "worse"
)

// side summarises one commit's runs of one metric.
type side struct{ med, q1, q3 float64 }

func summarise(xs []float64) side {
	q1, q3 := quartiles(xs)
	return side{median(xs), q1, q3}
}

// verdict judges one metric and returns the share of pairs the change won.
func verdict(m specMetric, parent, change []float64) (string, float64) {
	lower := m.Better == "lower"
	better := func(c, p float64) bool {
		if lower {
			return c < p
		}
		return c > p
	}
	pairs := len(parent)
	if len(change) < pairs {
		pairs = len(change)
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	winShare := ratio(float64(wins), float64(pairs))
	p, c := summarise(parent), summarise(change)
	iqr := p.q3 - p.q1
	diff := c.med - p.med
	if diff < 0 {
		diff = -diff
	}
	switch {
	case pairs > 0 && wins*10 >= pairs*9 && diff > iqr && better(c.med, p.med):
		return improved, winShare
	case m.Bound == nil && pairs > 0 && losses*10 >= pairs*9 && diff > iqr && better(p.med, c.med):
		return worse, winShare
	case m.Bound == nil:
		return unchanged, winShare
	}
	loss := ratio(c.med-p.med, p.med)
	if !lower {
		loss = -loss
	}
	if loss > *m.Bound {
		return regressed, winShare
	}
	if ratio(iqr, p.med) > *m.Bound && !allBetter(change, parent, better) {
		return unresolved, winShare
	}
	return unchanged, winShare
}

func allBetter(change, parent []float64, better func(c, p float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}

func failedShare(rs []result) float64 {
	a, f := 0, 0
	for _, r := range rs {
		a += r.Attempted
		f += r.Failed
	}
	return ratio(float64(f), float64(a))
}

// compare reports, per workload and metric, both sides' median and
// quartiles, the share of pairs the change wins and a verdict. It returns
// whether the change is acceptable: no end-to-end metric regressed, no
// more operations failed and every output was correct.
func compare(s *spec, parent, change map[string][]result, w io.Writer) bool {
	ok := true
	var wls []string
	for wl := range parent {
		if _, both := change[wl]; both {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-18s %-30s %26s %26s %5s  %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins", "verdict")
	for _, wl := range wls {
		p, c := parent[wl], change[wl]
		pf, cf := failedShare(p), failedShare(c)
		v := unchanged
		if cf > pf {
			v, ok = regressed, false
		}
		for _, r := range c {
			if !r.Correct {
				v, ok = "incorrect", false
			}
		}
		fmt.Fprintf(w, "%-18s %-30s %26.4g %26.4g %5s  %s\n", wl, "failed_share", pf, cf, "", v)
		for i, group := range [][]specMetric{s.EndToEnd, s.PerLayer} {
			for _, m := range group {
				pv, cv := values(p, m.Name), values(c, m.Name)
				if len(pv) == 0 || len(cv) == 0 {
					continue
				}
				v, wins := verdict(m, pv, cv)
				if i == 0 && v == regressed {
					ok = false
				}
				ps, cs := summarise(pv), summarise(cv)
				fmt.Fprintf(w, "%-18s %-30s %10.4g [%6.4g, %6.4g] %10.4g [%6.4g, %6.4g] %4.0f%%  %s\n",
					wl, m.Name, ps.med, ps.q1, ps.q3, cs.med, cs.q1, cs.q3, 100*wins, v)
			}
		}
	}
	return ok
}

func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	bounds := fs.String("bounds", "BENCHMARK.json", "benchmark description holding each metric's direction and bound")
	parentDir := fs.String("parent", "", "directory of the parent commit's runs")
	changeDir := fs.String("change", "", "directory of the change's runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *parentDir == "" || *changeDir == "" {
		fmt.Fprintln(os.Stderr, "bench compare: -parent and -change are required")
		return 2
	}
	s, err := readSpec(*bounds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	parent, err := readRuns(*parentDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	change, err := readRuns(*changeDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	if !compare(s, parent, change, w) {
		return 1
	}
	return 0
}
