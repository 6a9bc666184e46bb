// Command bench is MIMONet's system benchmark. It drives the program only
// through its public package APIs — the PHY transmitter and receiver, the
// channel simulator, the UDP IQ transport, the flowgraph with the receiver
// block, and the session gateway — on one of four workloads, checks every
// output against what was sent, and prints each metric by name with its
// unit. The last line of standard output is the result as one JSON object.
//
//	bench --workload rx-mcs0-1x4 --seed 1 --seconds 20 --trace 0
//	bench compare -parent runs/parent -change runs/change
//
// With --trace 1 the measured window alternates untraced and traced phases:
// the per-layer metrics come from the traced ones, the overhead of tracing
// from the difference, and the spans are written to --spans at exit.
// README.md lists the workloads, the metrics and what moves them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// harness drives one workload instance.
type harness interface {
	// run drives the workload for d and records what it measured into t.
	// With traced set it records spans and attaches the receiver's tracer.
	run(d time.Duration, traced bool, t *tally) error
	close()
}

type workload struct {
	name string
	// setup builds the workload's seeded inputs and a ready instance,
	// recording set-up-time measurements into st.
	setup func(seed int64, spans *spanLog, st *tally) (harness, error)
	// mustDeliver marks workloads on which every operation must succeed.
	mustDeliver bool
	// procs, when set, bounds GOMAXPROCS for the run.
	procs int
}

var (
	rxLight = rxSpec{mcs: 0, antennas: 4, detector: "mmse"}
	rxML    = rxSpec{mcs: 12, antennas: 2, detector: "ml"}
)

var workloads = []workload{
	{"rx-mcs0-1x4", rxLight.setup, true, 0},
	{"rx-mcs12-2x2-ml", rxML.setup, true, 0},
	{"link-udp-mixed", setupLink, false, 0},
	// The gateway runs on one P: spread over two, its clients, ingress,
	// demux and session workers wake each other across CPUs, and the
	// run-to-run spread of both end-to-end metrics grows from about 3% to
	// about 8% on the 2-vCPU reference VM (README.md, "Sizing").
	{"gw-bulk-small", setupGw, true, 1},
}

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

const (
	// Set-up runs at least minSetups times and until minSetupTime has
	// passed, at most maxSetups times, and reports the median. A set-up of a
	// few milliseconds swings by half between runs; a median over many of
	// them does not.
	minSetups    = 5
	maxSetups    = 200
	minSetupTime = time.Second
	maxWarmup    = 3 * time.Second
	// tracePhases alternate untraced and traced, so both see the same
	// drift in machine load.
	tracePhases = 4
	// goodputSlices is how many slices of the window goodput is taken over.
	goodputSlices = 10
)

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	spans    string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// errUndelivered reports a run whose workload must deliver every output
// but did not; the result is still printed.
var errUndelivered = errors.New("operations failed on a workload where none may")

func runBench(o options, log io.Writer) (*result, error) {
	w, err := lookup(o.workload)
	if err != nil {
		return nil, err
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	if w.procs > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.procs))
	}
	var spans *spanLog
	if o.trace {
		spans = newSpanLog()
	}
	var (
		h      harness
		st     *tally
		setups []float64
	)
	for began := wall.Now(); len(setups) < minSetups ||
		len(setups) < maxSetups && wall.Since(began) < minSetupTime; {
		if h != nil {
			h.close()
		}
		st = newTally(0)
		t0 := wall.Now()
		h, err = w.setup(o.seed, spans, st)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, wall.Since(t0).Seconds())
	}
	defer h.close()

	window := time.Duration(o.seconds * float64(time.Second))
	warm := window / 5
	if warm > maxWarmup {
		warm = maxWarmup
	}
	fmt.Fprintf(log, "%s: set-up %.3fs (median of %d), warming up %v, measuring %v\n", w.name, median(setups), len(setups), warm, window)
	if err := h.run(warm, false, newTally(0)); err != nil {
		return nil, fmt.Errorf("%s warm-up: %w", w.name, err)
	}
	phases := []bool{false}
	if o.trace {
		phases = nil
		for i := 0; i < tracePhases; i++ {
			phases = append(phases, i%2 == 1)
		}
	}
	u, tr := newTally(window/goodputSlices), newTally(window/goodputSlices)
	for _, traced := range phases {
		t := u
		if traced {
			t = tr
		}
		d := window / time.Duration(len(phases))
		p := startProbe()
		t.beginPhase(wall.Now(), d)
		err := h.run(d, traced, t)
		t.endPhase()
		p.finish(t)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
	}

	res := &result{
		Attempted: u.attempted + tr.attempted,
		Failed:    u.failed + tr.failed,
	}
	res.Correct = u.wrong+tr.wrong == 0 && res.Attempted > 0
	if o.trace {
		res.Metrics = perLayer(u, tr, st)
		if o.spans != "" {
			if err := spans.write(o.spans); err != nil {
				return nil, fmt.Errorf("writing spans: %w", err)
			}
		}
	} else {
		res.Metrics = endToEnd(u, setups)
	}
	if w.mustDeliver && res.Failed > 0 {
		return res, errUndelivered
	}
	return res, nil
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:], os.Stdout))
	}
	var (
		o     options
		trace int
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run (see README.md)")
	flag.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&o.seconds, "seconds", 20, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = report per-layer metrics from a traced run")
	flag.StringVar(&o.spans, "spans", "", "file the traced run's spans are written to (default .bench_build/spans-<workload>.json)")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "bench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = trace == 1
	if o.trace && o.spans == "" {
		o.spans = filepath.Join(".bench_build", "spans-"+o.workload+".json")
	}
	res, err := runBench(o, os.Stderr)
	if res == nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err := printResult(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	if err != nil || !res.Correct {
		fmt.Fprintf(os.Stderr, "bench: %d of %d operations failed, correct=%v\n", res.Failed, res.Attempted, res.Correct)
		os.Exit(1)
	}
}

// printResult writes one line per metric, then the JSON result line.
func printResult(w io.Writer, res *result) error {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-32s %14.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "%-32s %14.6g ratio\n", "ok_ratio", 1-ratio(float64(res.Failed), float64(res.Attempted)))
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
