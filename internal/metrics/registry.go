package metrics

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
	"sync"
)

// Labels name one instance of a metric family. Per-participant metrics
// carry {role, addr} so several agents sharing a Registry (the in-process
// cluster harness) stay distinct; deliberately label-free histograms are
// shared handles that aggregate across participants.
type Labels map[string]string

// metricKind discriminates what a registry entry holds.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
	kindCounterFunc
	kindGaugeFunc
)

func (k metricKind) promType() string {
	switch k {
	case kindCounter, kindCounterFunc:
		return "counter"
	case kindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// entry is one registered (family, labels) instance.
type entry struct {
	name   string
	help   string
	kind   metricKind
	labels string // canonical encoded label pairs, "" when unlabeled
	lbl    Labels // the pairs themselves, for Sum's matching

	counter     *Counter
	gauge       *Gauge
	histogram   *Histogram
	counterFunc func() uint64
	gaugeFunc   func() float64
}

// Registry holds every metric a process exposes. Registration takes a
// mutex; the handles it returns are lock-free. Registering the same
// (name, labels) twice returns the first handle — participants that
// share a registry also share low-cardinality histograms this way, and
// readers can look a handle up by re-registering.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	order   []string // family names in first-registration order
	byFam   map[string][]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*entry),
		byFam:   make(map[string][]*entry),
	}
}

// encodeLabels canonicalizes labels: sorted by key, values escaped the
// way the Prometheus text format requires.
func encodeLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// register finds or creates the entry for (name, labels); make builds the
// concrete metric on first registration. A kind clash on re-registration
// panics — that is a programming error, not a runtime condition.
func (r *Registry) register(name, help string, labels Labels, kind metricKind, make func(*entry)) *entry {
	if r == nil {
		return nil
	}
	key := name + "{" + encodeLabels(labels) + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[key]; ok {
		if e.kind != kind {
			panic(fmt.Sprintf("metrics: %s re-registered as %v, was %v", key, kind, e.kind))
		}
		return e
	}
	e := &entry{name: name, help: help, kind: kind, labels: encodeLabels(labels), lbl: maps.Clone(labels)}
	make(e)
	r.entries[key] = e
	if _, seen := r.byFam[name]; !seen {
		r.order = append(r.order, name)
	}
	r.byFam[name] = append(r.byFam[name], e)
	return e
}

// Counter registers (or finds) a counter. Nil registries return a nil
// handle, which every Counter method tolerates.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	if r == nil {
		return nil
	}
	return r.register(name, help, labels, kindCounter, func(e *entry) {
		e.counter = &Counter{}
	}).counter
}

// Gauge registers (or finds) a gauge.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(name, help, labels, kindGauge, func(e *entry) {
		e.gauge = &Gauge{}
	}).gauge
}

// Histogram registers (or finds) a histogram with the given bucket upper
// bounds (copied; the +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(name, help, labels, kindHistogram, func(e *entry) {
		e.histogram = newHistogram(bounds)
	}).histogram
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — used to surface counters a subsystem already maintains (e.g.
// transport nodeStats) without double-counting writes.
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() uint64) {
	if r == nil {
		return
	}
	r.register(name, help, labels, kindCounterFunc, func(e *entry) {
		e.counterFunc = fn
	})
}

// GaugeFunc registers a gauge sampled from fn at scrape time — used for
// instantaneous depths (inbox, send queues) that would be racy to mirror.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	if r == nil {
		return
	}
	r.register(name, help, labels, kindGaugeFunc, func(e *entry) {
		e.gaugeFunc = fn
	})
}

// Families returns the registered family names in first-registration
// order. Mostly for tests and the bench reporter.
func (r *Registry) Families() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.order...)
}

// Sum adds up the current values of the counters and gauges of one family
// whose labels include every pair in match (all of them when match is
// empty); histograms add nothing. It reads the handles, not the exposition
// text, so a test or benchmark can read a family without a scrape.
func (r *Registry) Sum(family string, match Labels) (sum float64) {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	ents := append([]*entry(nil), r.byFam[family]...)
	r.mu.Unlock()
next:
	for _, e := range ents {
		for k, v := range match {
			if e.lbl[k] != v {
				continue next
			}
		}
		switch e.kind {
		case kindCounter:
			sum += float64(e.counter.Value())
		case kindCounterFunc:
			sum += float64(e.counterFunc())
		case kindGauge:
			sum += float64(e.gauge.Value())
		case kindGaugeFunc:
			sum += e.gaugeFunc()
		}
	}
	return sum
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE block per family, instances in
// registration order under it.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	order := append([]string(nil), r.order...)
	fams := make(map[string][]*entry, len(order))
	for _, name := range order {
		fams[name] = append([]*entry(nil), r.byFam[name]...)
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, name := range order {
		ents := fams[name]
		if len(ents) == 0 {
			continue
		}
		if ents[0].help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", name, strings.ReplaceAll(ents[0].help, "\n", " "))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", name, ents[0].kind.promType())
		for _, e := range ents {
			writeEntry(&b, e)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func writeEntry(b *strings.Builder, e *entry) {
	switch e.kind {
	case kindCounter:
		writeSample(b, e.name, e.labels, "", fmt.Sprintf("%d", e.counter.Value()))
	case kindCounterFunc:
		writeSample(b, e.name, e.labels, "", fmt.Sprintf("%d", e.counterFunc()))
	case kindGauge:
		writeSample(b, e.name, e.labels, "", fmt.Sprintf("%d", e.gauge.Value()))
	case kindGaugeFunc:
		writeSample(b, e.name, e.labels, "", formatFloat(e.gaugeFunc()))
	case kindHistogram:
		s := e.histogram.Snapshot()
		var cum uint64
		for i, bound := range s.Bounds {
			cum += s.Counts[i]
			writeSample(b, e.name+"_bucket", e.labels, fmt.Sprintf(`le="%s"`, formatFloat(bound)), fmt.Sprintf("%d", cum))
		}
		writeSample(b, e.name+"_bucket", e.labels, `le="+Inf"`, fmt.Sprintf("%d", s.Count))
		writeSample(b, e.name+"_sum", e.labels, "", formatFloat(s.Sum))
		writeSample(b, e.name+"_count", e.labels, "", fmt.Sprintf("%d", s.Count))
	}
}

// writeSample emits one `name{labels,extra} value` line.
func writeSample(b *strings.Builder, name, labels, extra, value string) {
	b.WriteString(name)
	if labels != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(labels)
		if labels != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(value)
	b.WriteByte('\n')
}

func formatFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return s
}
