// Package obs is the runtime observability root for the MIMONet chain: a
// lock-cheap metrics registry (counters, gauges, fixed-bucket histograms
// with atomic hot paths and label support), a per-packet trace ring that
// follows a frame through the RX stages, and an HTTP exposition server
// (Prometheus text format, flowgraph health JSON, recent traces, pprof).
//
// Every instrument and the registry itself are nil-safe: a nil *Registry
// hands out nil instruments, and every method on a nil instrument is an
// allocation-free no-op. Un-instrumented paths therefore carry telemetry
// call sites at zero cost — the pattern the hotalloc lint fixture
// `instrumented.go` pins down.
//
// The package is detrand-guarded: timestamps flow through the injectable
// repro/internal/clock seam, never time.Now, so traces recorded under a
// fake clock in tests are deterministic.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key=value dimension on an instrument.
type Label struct {
	Key, Value string
}

// Kind enumerates the instrument families the registry can hold.
type Kind string

// Instrument kinds, matching the Prometheus metric types they expose as.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Registry is the metrics root: a set of named families, each holding one
// instrument per distinct label set. Registration takes a mutex; the
// instruments it returns update through atomics only, so the per-sample hot
// path never contends. A nil *Registry is valid and hands out nil
// instruments (no-op, allocation-free).
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

type family struct {
	name, help string
	kind       Kind
	buckets    []float64 // histogram families only
	// children maps the canonical label string to the instrument.
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	labels     map[string][]Label
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns the named family, creating it with the given kind on first
// use. Re-registering a name under a different kind is a programming error.
func (r *Registry) family(name, help string, kind Kind, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind, buckets: buckets,
			counters:   make(map[string]*Counter),
			gauges:     make(map[string]*Gauge),
			histograms: make(map[string]*Histogram),
			labels:     make(map[string][]Label),
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, f.kind, kind))
	}
	return f
}

// labelKey canonicalizes a label set: sorted by key, joined. The sorted copy
// is also returned for snapshotting.
func labelKey(labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return "", nil
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(l.Value)
	}
	return b.String(), ls
}

// Counter returns the counter with the given name and labels, registering
// it on first use. Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	key, ls := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindCounter, nil)
	c, ok := f.counters[key]
	if !ok {
		c = NewCounter()
		f.counters[key] = c
		f.labels[key] = ls
	}
	return c
}

// Gauge returns the gauge with the given name and labels, registering it on
// first use. Returns nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	key, ls := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindGauge, nil)
	g, ok := f.gauges[key]
	if !ok {
		g = NewGauge()
		f.gauges[key] = g
		f.labels[key] = ls
	}
	return g
}

// Histogram returns the histogram with the given name, bucket upper bounds
// and labels, registering it on first use. The bounds must be sorted
// ascending; an implicit +Inf bucket is always present. All instruments of
// one family share the bounds of the first registration. Returns nil on a
// nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	key, ls := labelKey(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.family(name, help, KindHistogram, buckets)
	h, ok := f.histograms[key]
	if !ok {
		h = NewHistogram(f.buckets)
		f.histograms[key] = h
		f.labels[key] = ls
	}
	return h
}

// Counter is a monotonically increasing count. The zero value is ready to
// use; all methods are safe for concurrent use and no-ops on nil.
type Counter struct {
	v atomic.Int64
}

// NewCounter returns a standalone counter not attached to any registry —
// the backing store for wrappers like metrics.Health when no exposition
// registry is configured.
func NewCounter() *Counter { return &Counter{} }

// Add increments the counter by n (n must be ≥ 0).
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable float value. The zero value is ready to use; all
// methods are safe for concurrent use and no-ops on nil.
type Gauge struct {
	bits atomic.Uint64
}

// NewGauge returns a standalone gauge not attached to any registry.
func NewGauge() *Gauge { return &Gauge{} }

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets (upper bounds,
// cumulative at snapshot time) plus sum and count. Observe is atomic and
// allocation-free; the zero value is NOT usable — construct via NewHistogram
// or Registry.Histogram. All methods no-op on nil.
type Histogram struct {
	bounds  []float64
	counts  []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sumBits atomic.Uint64
	count   atomic.Int64
}

// NewHistogram returns a standalone histogram over the given sorted upper
// bounds (an implicit +Inf bucket is appended).
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %g ≤ %g", i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds: append([]float64(nil), bounds...),
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExpBuckets returns n upper bounds starting at start, each factor times
// the previous — the usual shape for latency histograms.
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n ≥ 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketSnapshot is one cumulative histogram bucket.
type BucketSnapshot struct {
	// UpperBound is the bucket's le= bound; +Inf for the last.
	UpperBound float64
	// Count is the cumulative count of observations ≤ UpperBound.
	Count int64
}

// PointSnapshot is one instrument's point-in-time state.
type PointSnapshot struct {
	Labels []Label
	// Value carries the counter or gauge value (unused for histograms).
	Value float64
	// Buckets, Sum and Count carry histogram state.
	Buckets []BucketSnapshot
	Sum     float64
	Count   int64
}

// FamilySnapshot is one family's point-in-time state.
type FamilySnapshot struct {
	Name, Help string
	Kind       Kind
	Points     []PointSnapshot
}

// Gather snapshots every family, sorted by name with points sorted by label
// set, so exposition output is byte-stable between updates. Safe to call
// concurrently with instrument updates. Returns nil on a nil registry.
func (r *Registry) Gather() []FamilySnapshot {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]FamilySnapshot, 0, len(names))
	for _, name := range names {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind}
		keys := make([]string, 0, len(f.labels))
		switch f.kind {
		case KindCounter:
			for k := range f.counters {
				keys = append(keys, k)
			}
		case KindGauge:
			for k := range f.gauges {
				keys = append(keys, k)
			}
		case KindHistogram:
			for k := range f.histograms {
				keys = append(keys, k)
			}
		}
		sort.Strings(keys)
		for _, k := range keys {
			p := PointSnapshot{Labels: f.labels[k]}
			switch f.kind {
			case KindCounter:
				p.Value = float64(f.counters[k].Value())
			case KindGauge:
				p.Value = f.gauges[k].Value()
			case KindHistogram:
				h := f.histograms[k]
				p.Sum = h.Sum()
				p.Buckets = make([]BucketSnapshot, len(h.counts))
				var cum int64
				for i := range h.counts {
					cum += h.counts[i].Load()
					bound := math.Inf(1)
					if i < len(h.bounds) {
						bound = h.bounds[i]
					}
					p.Buckets[i] = BucketSnapshot{UpperBound: bound, Count: cum}
				}
				p.Count = cum
			}
			fs.Points = append(fs.Points, p)
		}
		out = append(out, fs)
	}
	return out
}
