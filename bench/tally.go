package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"repro/internal/clock"
	"repro/internal/obs"
)

// tally accumulates what the phases of one kind (traced or untraced)
// measured. Harness goroutines record into it concurrently.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	wrong     int // outputs delivered with bytes other than those sent
	// Goodput is counted in equal slices of the measured window: a verified
	// operation's payload goes to the slice it completed in (was due in,
	// on the open-loop link). The median slice is robust to the few-second
	// slowdowns a shared host imposes; a total over the window is not.
	slice       time.Duration
	phaseStart  time.Time
	phaseSlices int
	sliceBase   int
	sliceBits   map[int]float64
	// ops holds the headline operation's latencies (ms) by traffic class.
	ops      map[string][]float64
	samples  map[string][]float64
	counts   map[string]float64
	heapPeak float64
}

// newTally returns an empty tally whose goodput slices last slice (0: no
// goodput is counted).
func newTally(slice time.Duration) *tally {
	return &tally{slice: slice, sliceBits: map[int]float64{},
		ops: map[string][]float64{}, samples: map[string][]float64{}, counts: map[string]float64{}}
}

// beginPhase starts a measured phase of length d at now.
func (t *tally) beginPhase(now time.Time, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.phaseStart = now
	if t.slice > 0 {
		t.phaseSlices = int(d / t.slice)
	}
}

// endPhase closes the phase; only the slices it filled count.
func (t *tally) endPhase() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sliceBase += t.phaseSlices
	t.phaseSlices = 0
}

// goodput is the median over the measured slices of verified payload
// bits per second.
func (t *tally) goodput() float64 {
	rates := make([]float64, t.sliceBase)
	for i := range rates {
		rates[i] = t.sliceBits[i] / t.slice.Seconds()
	}
	return median(rates)
}

func (t *tally) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

func (t *tally) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

func (t *tally) op(class string, latency time.Duration) {
	t.mu.Lock()
	t.ops[class] = append(t.ops[class], ms(latency))
	t.mu.Unlock()
}

// headline is the median latency of the headline operation, averaged over
// its traffic classes with equal weight. The median of a mix of classes
// whose latencies differ tenfold jumps between classes from run to run;
// the average of per-class medians does not.
func (t *tally) headline() float64 {
	total := 0.0
	for _, xs := range t.ops {
		total += median(xs)
	}
	return ratio(total, float64(len(t.ops)))
}

// outcome counts one attempted operation and, when its output was
// verified, its payload in the goodput slice holding at.
func (t *tally) outcome(ok bool, at time.Time, payloadBytes int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		return
	}
	if t.slice > 0 {
		if i := int(at.Sub(t.phaseStart) / t.slice); i >= 0 && i < t.phaseSlices {
			t.sliceBits[t.sliceBase+i] += 8 * float64(payloadBytes)
		}
	}
}

func (t *tally) mismatch() {
	t.mu.Lock()
	t.wrong++
	t.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// wall is the clock the benchmark measures and paces with: the real one,
// taken through the repository's clock seam.
var wall = clock.System

func sleep(d time.Duration) { <-wall.After(d) }

// runtimeProbe brackets a phase with the Go runtime's own accounting:
// allocations, GC CPU time and the peak live heap.
type runtimeProbe struct {
	mem     runtime.MemStats
	cpu     []metrics.Sample
	stop    chan struct{}
	sampled chan float64
}

var cpuMetrics = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startProbe() *runtimeProbe {
	p := &runtimeProbe{stop: make(chan struct{}), sampled: make(chan float64, 1)}
	p.cpu = readCPU()
	runtime.ReadMemStats(&p.mem)
	go func() {
		s := []metrics.Sample{{Name: heapMetric}}
		peak := 0.0
		tick := wall.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := float64(s[0].Value.Uint64()); v > peak {
				peak = v
			}
			select {
			case <-p.stop:
				p.sampled <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// finish folds the phase's runtime deltas into t.
func (p *runtimeProbe) finish(t *tally) {
	close(p.stop)
	peak := <-p.sampled
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	cpu := readCPU()
	d := func(i int) float64 { return cpu[i].Value.Float64() - p.cpu[i].Value.Float64() }
	t.add("rt.mallocs", float64(mem.Mallocs-p.mem.Mallocs))
	t.add("rt.alloc_bytes", float64(mem.TotalAlloc-p.mem.TotalAlloc))
	t.add("rt.gc_cpu_s", d(0))
	t.add("rt.busy_cpu_s", d(1)-d(2))
	t.mu.Lock()
	if peak > t.heapPeak {
		t.heapPeak = peak
	}
	t.mu.Unlock()
}

func readCPU() []metrics.Sample {
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s
}

// span is one timed call the benchmark made into the program, or one stage
// span the receiver emitted, folded under the call that caused it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory span log; later spans are counted, not kept.
const maxSpans = 1 << 18

// spanLog keeps spans in memory until the run ends. Times are nanoseconds
// since the log was created. A nil *spanLog records nothing.
type spanLog struct {
	mu      sync.Mutex
	epoch   time.Time
	spans   []span
	dropped int
}

func newSpanLog() *spanLog { return &spanLog{epoch: wall.Now()} }

// add records a span and returns its ID (0 when nothing was recorded).
func (l *spanLog) add(parent int, name string, req uint64, start, end time.Time) int {
	if l == nil {
		return 0
	}
	return l.addNs(parent, name, req, start.Sub(l.epoch).Nanoseconds(), end.Sub(l.epoch).Nanoseconds())
}

func (l *spanLog) addNs(parent int, name string, req uint64, start, end int64) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return 0
	}
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: start, End: end})
	return id
}

func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans   []span `json:"spans"`
		Dropped int    `json:"dropped"`
	}{l.spans, l.dropped})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// stageLayer names the package behind each receiver stage span.
var stageLayer = map[string]string{
	obs.StageSync:     "synchro",
	obs.StageChanest:  "chanest",
	obs.StageDemod:    "ofdm",
	obs.StageDetector: "mimo",
	obs.StageViterbi:  "fec",
	obs.StageCRC:      "mac",
}

// foldStages records one packet's receiver stage spans under parent and
// samples each stage's in-stage time as its layer's self time. Stages the
// receiver re-enters (chanest) report their summed time.
func foldStages(l *spanLog, t *tally, parent int, req uint64, snap obs.TraceSnapshot) {
	for _, s := range snap.Spans {
		layer, ok := stageLayer[s.Stage]
		if !ok {
			continue
		}
		t.sample(layer+".self_ms", float64(s.TotalNs)/1e6)
		if l != nil {
			epoch := l.epoch.UnixNano()
			l.addNs(parent, "stage."+s.Stage, req, s.StartNs-epoch, s.EndNs-epoch)
		}
	}
}
