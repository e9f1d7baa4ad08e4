package metrics

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeNilSafe(t *testing.T) {
	var c *Counter
	c.Add(5)
	c.Inc()
	if c.Value() != 0 {
		t.Fatalf("nil counter value = %d", c.Value())
	}
	var g *Gauge
	g.Set(7)
	g.Add(-3)
	if g.Value() != 0 {
		t.Fatalf("nil gauge value = %d", g.Value())
	}
	var h *Histogram
	h.Observe(1.0)
	s := h.Snapshot()
	if s.Count != 0 || s.Mean() != 0 || s.Quantile(0.5) != 0 {
		t.Fatalf("nil histogram snapshot not zero: %+v", s)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	c := &Counter{}
	c.Add(3)
	c.Inc()
	if got := c.Value(); got != 4 {
		t.Fatalf("counter = %d, want 4", got)
	}
	g := &Gauge{}
	g.Set(10)
	g.Add(-4)
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestHistogramBucketAssignment(t *testing.T) {
	h := newHistogram([]float64{1, 2, 4})
	// Prometheus buckets are upper-inclusive: le="1" counts v == 1.
	for _, v := range []float64{0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 9.0} {
		h.Observe(v)
	}
	s := h.Snapshot()
	want := []uint64{2, 2, 2, 1} // (-inf,1], (1,2], (2,4], (4,+inf)
	for i, w := range want {
		if s.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 7 {
		t.Fatalf("count = %d, want 7", s.Count)
	}
	if math.Abs(s.Sum-21.0) > 1e-9 {
		t.Fatalf("sum = %g, want 21", s.Sum)
	}
}

// TestHistogramQuantileVsExact checks the interpolated quantiles against
// exact order statistics of a known sample: with linear buckets the
// estimator must land within one bucket width of the truth.
func TestHistogramQuantileVsExact(t *testing.T) {
	bounds := make([]float64, 20)
	for i := range bounds {
		bounds[i] = float64(i+1) * 5 // 5, 10, ..., 100
	}
	h := newHistogram(bounds)
	rng := rand.New(rand.NewSource(1))
	exact := make([]float64, 0, 10_000)
	for i := 0; i < 10_000; i++ {
		v := rng.Float64() * 100
		exact = append(exact, v)
		h.Observe(v)
	}
	sort.Float64s(exact)
	s := h.Snapshot()
	const width = 5.0
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9, 0.99} {
		got := s.Quantile(q)
		want := exact[int(q*float64(len(exact)))-1]
		if math.Abs(got-want) > width {
			t.Errorf("q%.2f = %g, exact %g (tolerance %g)", q, got, want, width)
		}
	}
	if got := s.Quantile(1.0); got > 100 {
		t.Errorf("q1.0 = %g beyond top bound", got)
	}
	if mean, want := s.Mean(), 50.0; math.Abs(mean-want) > 2 {
		t.Errorf("mean = %g, want ~%g", mean, want)
	}
}

// TestHistogramMergeAssociative checks the fold contract cluster-wide
// aggregation relies on: (a+b)+c == a+(b+c) == (c+a)+b, bucket for bucket.
func TestHistogramMergeAssociative(t *testing.T) {
	mk := func(seed int64, n int) HistogramSnapshot {
		h := newHistogram(DurationBuckets)
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n; i++ {
			h.Observe(rng.Float64() * 2)
		}
		return h.Snapshot()
	}
	a, b, c := mk(1, 100), mk(2, 250), mk(3, 37)
	merge := func(x, y HistogramSnapshot) HistogramSnapshot {
		t.Helper()
		out, err := x.Merge(y)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	left := merge(merge(a, b), c)
	right := merge(a, merge(b, c))
	rotated := merge(merge(c, a), b)
	for _, other := range []HistogramSnapshot{right, rotated} {
		if left.Count != other.Count || math.Abs(left.Sum-other.Sum) > 1e-9 {
			t.Fatalf("merge orders disagree: %+v vs %+v", left, other)
		}
		for i := range left.Counts {
			if left.Counts[i] != other.Counts[i] {
				t.Fatalf("bucket %d: %d vs %d", i, left.Counts[i], other.Counts[i])
			}
		}
	}
	if left.Count != a.Count+b.Count+c.Count {
		t.Fatalf("merged count = %d, want %d", left.Count, a.Count+b.Count+c.Count)
	}
	// Empty snapshots are identity elements.
	if out := merge(HistogramSnapshot{}, a); out.Count != a.Count {
		t.Fatalf("empty+a count = %d", out.Count)
	}
	// Mismatched bounds must refuse, not corrupt.
	if _, err := a.Merge(newHistogram(SizeBuckets).Snapshot()); err == nil {
		t.Fatal("merge with mismatched bounds succeeded")
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := newHistogram(DurationBuckets)
	const workers, per = 8, 5_000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(rng.Float64())
			}
		}(int64(w))
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("count = %d, want %d", s.Count, workers*per)
	}
	var bucketSum uint64
	for _, c := range s.Counts {
		bucketSum += c
	}
	if bucketSum != s.Count {
		t.Fatalf("bucket sum %d != count %d", bucketSum, s.Count)
	}
	if s.Mean() < 0.4 || s.Mean() > 0.6 {
		t.Fatalf("mean of uniform(0,1) = %g", s.Mean())
	}
}

func TestRegistryDedupAndLookup(t *testing.T) {
	reg := NewRegistry()
	a := reg.Counter("elga_test_total", "help", Labels{"role": "agent", "addr": "x"})
	b := reg.Counter("elga_test_total", "help", Labels{"addr": "x", "role": "agent"})
	if a != b {
		t.Fatal("same (name, labels) returned distinct handles")
	}
	c := reg.Counter("elga_test_total", "help", Labels{"role": "agent", "addr": "y"})
	if a == c {
		t.Fatal("distinct labels shared a handle")
	}
	h1 := reg.Histogram("elga_test_seconds", "help", nil, DurationBuckets)
	h2 := reg.Histogram("elga_test_seconds", "help", nil, DurationBuckets)
	if h1 != h2 {
		t.Fatal("shared histogram not deduped")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash did not panic")
		}
	}()
	reg.Gauge("elga_test_total", "help", Labels{"role": "agent", "addr": "x"})
}

// TestRegistrySum reads one family's counters and gauges, all or those
// whose labels match, and nothing of another family or of a histogram.
func TestRegistrySum(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("elga_test_total", "", Labels{"role": "agent", "addr": "x"}).Add(3)
	reg.Counter("elga_test_total", "", Labels{"role": "agent", "addr": "y"}).Add(4)
	reg.CounterFunc("elga_test_total", "", Labels{"role": "client", "addr": "x"}, func() uint64 { return 5 })
	reg.Counter("elga_other_total", "", Labels{"addr": "x"}).Add(100)
	reg.GaugeFunc("elga_test_depth", "", nil, func() float64 { return 1.5 })
	reg.Gauge("elga_test_depth", "", Labels{"addr": "x"}).Set(2)
	reg.Histogram("elga_test_seconds", "", nil, DurationBuckets).Observe(1)
	for _, tc := range []struct {
		family string
		match  Labels
		want   float64
	}{
		{"elga_test_total", nil, 12},
		{"elga_test_total", Labels{"addr": "x"}, 8},
		{"elga_test_total", Labels{"addr": "x", "role": "agent"}, 3},
		{"elga_test_total", Labels{"addr": "z"}, 0},
		{"elga_test_depth", nil, 3.5},
		{"elga_test_depth", Labels{"addr": "x"}, 2},
		{"elga_test_seconds", nil, 0},
		{"elga_missing_total", nil, 0},
	} {
		if got := reg.Sum(tc.family, tc.match); got != tc.want {
			t.Errorf("Sum(%s, %v) = %v, want %v", tc.family, tc.match, got, tc.want)
		}
	}
	var nilReg *Registry
	if got := nilReg.Sum("elga_test_total", nil); got != 0 {
		t.Fatalf("nil registry sum = %v", got)
	}
}

func TestNilRegistrySafe(t *testing.T) {
	var reg *Registry
	reg.Counter("x", "", nil).Inc()
	reg.Gauge("y", "", nil).Set(1)
	reg.Histogram("z", "", nil, DurationBuckets).Observe(1)
	reg.CounterFunc("cf", "", nil, func() uint64 { return 1 })
	reg.GaugeFunc("gf", "", nil, func() float64 { return 1 })
	if fams := reg.Families(); fams != nil {
		t.Fatalf("nil registry families = %v", fams)
	}
	if err := reg.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestWritePrometheusFormat scrapes a populated registry and checks the
// exposition text line by line: HELP/TYPE blocks, escaping, cumulative
// buckets, and the _sum/_count suffixes.
func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("elga_frames_total", "Frames.", Labels{"role": "agent"}).Add(3)
	reg.Gauge("elga_depth", "Depth.", nil).Set(-2)
	reg.GaugeFunc("elga_load", "Load.", Labels{"q": `a"b\c`}, func() float64 { return 1.5 })
	h := reg.Histogram("elga_lat_seconds", "Latency.", nil, []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	text := b.String()
	for _, want := range []string{
		"# HELP elga_frames_total Frames.",
		"# TYPE elga_frames_total counter",
		`elga_frames_total{role="agent"} 3`,
		"# TYPE elga_depth gauge",
		"elga_depth -2",
		`elga_load{q="a\"b\\c"} 1.5`,
		"# TYPE elga_lat_seconds histogram",
		`elga_lat_seconds_bucket{le="0.1"} 1`,
		`elga_lat_seconds_bucket{le="1"} 2`,
		`elga_lat_seconds_bucket{le="+Inf"} 3`,
		"elga_lat_seconds_sum 5.55",
		"elga_lat_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("scrape missing %q\n%s", want, text)
		}
	}
	// Every non-comment line must be `name{labels} value`.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestHTTPServer(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("elga_up", "Up.", nil).Inc()
	srv, err := ListenAndServe("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(fmt.Sprintf("http://%s%s", srv.Addr(), path))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(ctype, "text/plain") || !strings.Contains(ctype, "0.0.4") {
		t.Fatalf("content type %q", ctype)
	}
	if !strings.Contains(body, "elga_up 1") {
		t.Fatalf("scrape body missing counter:\n%s", body)
	}
	if code, _, _ := get("/debug/pprof/"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
}

// TestObservationNeverAllocates pins the hot-path contract the package
// doc makes: counter adds, gauge sets, and histogram observes are
// allocation-free, live or nil.
func TestObservationNeverAllocates(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c_total", "", nil)
	g := reg.Gauge("g", "", nil)
	h := reg.Histogram("h_seconds", "", nil, DurationBuckets)
	var nc *Counter
	var nh *Histogram
	v := 0.001
	if allocs := testing.AllocsPerRun(1000, func() {
		c.Add(2)
		g.Set(3)
		h.Observe(v)
		nc.Inc()
		nh.Observe(v)
		v += 1e-6
	}); allocs != 0 {
		t.Fatalf("observation allocates %v per round, want 0", allocs)
	}
}
