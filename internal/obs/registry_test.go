package obs

import (
	"math"
	"testing"
)

func TestNilRegistryHandsOutNilInstruments(t *testing.T) {
	var r *Registry
	if c := r.Counter("x", "h"); c != nil {
		t.Fatalf("nil registry Counter = %v, want nil", c)
	}
	if g := r.Gauge("x", "h"); g != nil {
		t.Fatalf("nil registry Gauge = %v, want nil", g)
	}
	if h := r.Histogram("x", "h", []float64{1}); h != nil {
		t.Fatalf("nil registry Histogram = %v, want nil", h)
	}
	if s := r.Gather(); s != nil {
		t.Fatalf("nil registry Gather = %v, want nil", s)
	}
}

func TestNilInstrumentsAreAllocationFreeNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(1.5)
		h.Observe(0.25)
	})
	if allocs != 0 {
		t.Fatalf("nil instrument ops allocated %v/op, want 0", allocs)
	}
	if c.Value() != 0 || g.Value() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments should read as zero")
	}
}

func TestLiveHotPathIsAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "h")
	g := r.Gauge("g", "h")
	h := r.Histogram("h_seconds", "h", []float64{0.1, 1, 10})
	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		g.Set(4)
		h.Observe(0.5)
	})
	if allocs != 0 {
		t.Fatalf("live instrument ops allocated %v/op, want 0", allocs)
	}
}

func TestCounterGaugeSemantics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("reqs_total", "requests", Label{Key: "code", Value: "200"})
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	// Same (name, labels) must return the same instrument.
	if c2 := r.Counter("reqs_total", "requests", Label{Key: "code", Value: "200"}); c2 != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Different labels get their own child.
	other := r.Counter("reqs_total", "requests", Label{Key: "code", Value: "500"})
	if other == c {
		t.Fatal("distinct label sets shared an instrument")
	}

	g := r.Gauge("temp", "t")
	g.Set(22.5)
	if got := g.Value(); got != 22.5 {
		t.Fatalf("gauge = %g, want 22.5", got)
	}
}

func TestHistogramBucketsCumulative(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if n := h.count.Load(); n != 4 {
		t.Fatalf("count = %d, want 4", n)
	}
	if h.Sum() != 105 {
		t.Fatalf("sum = %g, want 105", h.Sum())
	}
	r := NewRegistry()
	rh := r.Histogram("lat", "l", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		rh.Observe(v)
	}
	fams := r.Gather()
	if len(fams) != 1 || len(fams[0].Points) != 1 {
		t.Fatalf("gather shape: %+v", fams)
	}
	p := fams[0].Points[0]
	wantCum := []int64{1, 2, 3, 4}
	if len(p.Buckets) != len(wantCum) {
		t.Fatalf("buckets = %d, want %d", len(p.Buckets), len(wantCum))
	}
	for i, want := range wantCum {
		if p.Buckets[i].Count != want {
			t.Fatalf("bucket %d cumulative = %d, want %d", i, p.Buckets[i].Count, want)
		}
	}
	if !math.IsInf(p.Buckets[3].UpperBound, 1) {
		t.Fatalf("last bound = %g, want +Inf", p.Buckets[3].UpperBound)
	}
	if p.Count != 4 {
		t.Fatalf("point count = %d, want 4", p.Count)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "h")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("m", "h")
}

func TestUnsortedHistogramBoundsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unsorted bounds did not panic")
		}
	}()
	NewHistogram([]float64{2, 1})
}

func TestExpBuckets(t *testing.T) {
	got := ExpBuckets(1e-6, 4, 4)
	want := []float64{1e-6, 4e-6, 1.6e-5, 6.4e-5}
	for i := range want {
		if math.Abs(got[i]-want[i]) > want[i]*1e-12 {
			t.Fatalf("bucket %d = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestGatherSortedByNameAndLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("z_total", "h")
	r.Counter("a_total", "h", Label{Key: "k", Value: "2"})
	r.Counter("a_total", "h", Label{Key: "k", Value: "1"})
	fams := r.Gather()
	if len(fams) != 2 || fams[0].Name != "a_total" || fams[1].Name != "z_total" {
		t.Fatalf("family order: %v, %v", fams[0].Name, fams[1].Name)
	}
	pts := fams[0].Points
	if len(pts) != 2 || pts[0].Labels[0].Value != "1" || pts[1].Labels[0].Value != "2" {
		t.Fatalf("point order: %+v", pts)
	}
}
