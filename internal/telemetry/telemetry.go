// Package telemetry is the process-wide instrumentation core: atomic
// counters, gauges, and log-bucketed histograms with lock-free recording,
// collected in a registry that produces deterministic snapshots, a
// Prometheus text-format exposition page, and a human-readable timing
// summary.
//
// The package is built for hot paths. Recording — Counter.Add,
// Gauge.Set, Histogram.Observe — is a handful of atomic operations and
// never allocates, so instruments can sit inside the zero-alloc replay
// loop (the arena's warm path stays 0 allocs/op with telemetry enabled;
// see sim's alloc pins). Vec lookups read a copy-on-write map without
// locking; resolving a child the first time takes a mutex and copies the
// map, so callers on hot paths should resolve once and keep the handle.
//
// Snapshots are mergeable and deterministic: metrics sort by name,
// samples by label values, and histogram buckets are cumulative with
// trimmed zero runs — two snapshots of the same state are byte-identical
// through both the JSON and Prometheus encoders.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ---------------------------------------------------------------------------
// Instruments

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// AddInt adds n when positive; negative deltas are ignored (counters are
// monotone).
func (c *Counter) AddInt(n int64) {
	if n > 0 {
		c.v.Add(uint64(n))
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets is the fixed bucket count of every histogram: bucket i
// holds observations v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i
// (bucket 0 holds exactly v == 0). 64-bit values need indexes 0..64.
const histBuckets = 65

// Histogram is a log2-bucketed histogram of non-negative integer
// observations (typically nanoseconds). Recording is lock-free — one
// atomic add into the value's bucket plus count and sum — and snapshots
// from concurrent recorders merge to exact totals.
type Histogram struct {
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

// Observe records v. Negative values clamp to zero.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bits.Len64(uint64(v))].Add(1)
	h.count.Add(1)
	h.sum.Add(uint64(v))
}

// ObserveSince records the elapsed nanoseconds since t0.
func (h *Histogram) ObserveSince(t0 time.Time) { h.Observe(time.Since(t0).Nanoseconds()) }

// HistogramData is a point-in-time copy of a histogram's buckets,
// suitable for merging across histograms or snapshots.
type HistogramData struct {
	Count   uint64
	Sum     uint64
	Buckets [histBuckets]uint64
}

// Load copies the histogram's current state into d. Each field is read
// atomically; with concurrent recorders the fields may straddle an
// in-flight observation, but once recorders quiesce a load is exact.
func (h *Histogram) Load(d *HistogramData) {
	d.Count = h.count.Load()
	d.Sum = h.sum.Load()
	for i := range h.buckets {
		d.Buckets[i] = h.buckets[i].Load()
	}
}

// bucketBound returns the inclusive upper bound of bucket i in raw
// units: every observation in buckets 0..i is <= 2^i - 1.
func bucketBound(i int) float64 {
	if i >= 64 {
		return math.Inf(1)
	}
	return float64(uint64(1)<<uint(i)) - 1
}

// ---------------------------------------------------------------------------
// Registry

type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// child is one labeled instance of a vec metric.
type child struct {
	values []string
	c      *Counter
	h      *Histogram
}

// metric is one registered family: a single instrument, a callback, or a
// set of labeled children.
type metric struct {
	name   string
	help   string
	kind   metricKind
	scale  float64 // exposition multiplier over raw values (1 when unset)
	labels []string

	c  *Counter
	g  *Gauge
	h  *Histogram
	fn func() float64 // counterFunc / gaugeFunc; guarded by reg.mu on replace

	mu       sync.Mutex // guards children inserts
	children atomic.Pointer[map[string]*child]
}

// Registry holds named metrics and produces deterministic snapshots.
// The zero value is not usable; create with New or use Default.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
}

// New returns an empty registry.
func New() *Registry { return &Registry{metrics: make(map[string]*metric)} }

var std = New()

// Default returns the process-wide registry that every package-level
// instrument registers into and that /metrics exposes.
func Default() *Registry { return std }

// validName reports whether name is a legal Prometheus metric or label
// name: [a-zA-Z_:][a-zA-Z0-9_:]* (labels additionally exclude ':', not
// enforced here — the codebase uses plain snake_case).
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// register returns the metric for name, creating it on first use.
// Registration is idempotent for a same-kind name; a kind clash or an
// invalid name panics — both are programmer errors at package init.
func (r *Registry) register(name, help string, kind metricKind, scale float64, labels []string) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !validName(l) {
			panic(fmt.Sprintf("telemetry: invalid label name %q on %q", l, name))
		}
	}
	if scale == 0 {
		scale = 1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind || len(m.labels) != len(labels) {
			panic(fmt.Sprintf("telemetry: metric %q re-registered with a different shape", name))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, scale: scale, labels: labels}
	if len(labels) > 0 {
		empty := make(map[string]*child)
		m.children.Store(&empty)
	}
	r.metrics[name] = m
	return m
}

// Counter registers (or returns) a plain counter.
func (r *Registry) Counter(name, help string) *Counter {
	m := r.register(name, help, kindCounter, 1, nil)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// CounterScale registers a counter whose raw value is multiplied by
// scale at exposition — e.g. a nanosecond accumulator exposed in seconds
// with scale 1e-9.
func (r *Registry) CounterScale(name, help string, scale float64) *Counter {
	m := r.register(name, help, kindCounter, scale, nil)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// CounterFunc registers a counter read from fn at snapshot time — the
// bridge for cumulative totals a component already tracks itself.
// Re-registering replaces the callback (latest wins).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	m := r.register(name, help, kindCounter, 1, nil)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Gauge registers (or returns) a plain gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	m := r.register(name, help, kindGauge, 1, nil)
	if m.g == nil {
		m.g = &Gauge{}
	}
	return m.g
}

// GaugeFunc registers a gauge read from fn at snapshot time.
// Re-registering replaces the callback (latest wins).
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	m := r.register(name, help, kindGauge, 1, nil)
	r.mu.Lock()
	m.fn = fn
	r.mu.Unlock()
}

// Histogram registers (or returns) a histogram. scale converts raw
// observed units to exposed units (1e-9 for nanosecond observations
// exposed as a *_seconds histogram); 0 means 1.
func (r *Registry) Histogram(name, help string, scale float64) *Histogram {
	m := r.register(name, help, kindHistogram, scale, nil)
	if m.h == nil {
		m.h = &Histogram{}
	}
	return m.h
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("telemetry: CounterVec needs at least one label")
	}
	return &CounterVec{r.register(name, help, kindCounter, 1, labels)}
}

// HistogramVec registers a labeled histogram family. scale is as for
// Histogram.
func (r *Registry) HistogramVec(name, help string, scale float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("telemetry: HistogramVec needs at least one label")
	}
	return &HistogramVec{r.register(name, help, kindHistogram, scale, labels)}
}

// childKey joins label values into a map key. Single-label vecs (the
// common case) use the value itself, so a hit allocates nothing.
func childKey(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	return strings.Join(values, "\x1f")
}

// lookup returns the child for values, creating it on first use via a
// copy-on-write map insert. A hit is a lock-free map read.
func (m *metric) lookup(values []string) *child {
	if len(values) != len(m.labels) {
		panic(fmt.Sprintf("telemetry: metric %q wants %d label values, got %d", m.name, len(m.labels), len(values)))
	}
	key := childKey(values)
	if ch, ok := (*m.children.Load())[key]; ok {
		return ch
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	old := *m.children.Load()
	if ch, ok := old[key]; ok {
		return ch
	}
	ch := &child{values: append([]string(nil), values...)}
	switch m.kind {
	case kindCounter:
		ch.c = &Counter{}
	case kindHistogram:
		ch.h = &Histogram{}
	}
	next := make(map[string]*child, len(old)+1)
	for k, v := range old {
		next[k] = v
	}
	next[key] = ch
	m.children.Store(&next)
	return ch
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ m *metric }

// With returns the counter for the given label values, creating it on
// first use. Hot paths should call With once and keep the handle.
func (v *CounterVec) With(values ...string) *Counter { return v.m.lookup(values).c }

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ m *metric }

// With returns the histogram for the given label values, creating it on
// first use. Hot paths should call With once and keep the handle.
func (v *HistogramVec) With(values ...string) *Histogram { return v.m.lookup(values).h }

// ---------------------------------------------------------------------------
// Snapshots

// Snapshot is a deterministic point-in-time view of a registry.
type Snapshot struct {
	Metrics []MetricSnapshot `json:"metrics"`
}

// MetricSnapshot is one metric family: name, type, and its samples.
type MetricSnapshot struct {
	Name    string   `json:"name"`
	Type    string   `json:"type"`
	Help    string   `json:"help,omitempty"`
	Samples []Sample `json:"samples"`
}

// Sample is one labeled instance. Counters and gauges carry Value;
// histograms carry Histogram.
type Sample struct {
	Labels    map[string]string `json:"labels,omitempty"`
	Value     float64           `json:"value,omitempty"`
	Histogram *HistogramSample  `json:"histogram,omitempty"`
}

// HistogramSample is a histogram in exposed units: cumulative buckets
// with trimmed zero tails, plus the exact count and scaled sum.
type HistogramSample struct {
	Count   uint64   `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is a cumulative bucket: Count observations were <= LE (in
// exposed units). The implicit +Inf bucket equals the sample count.
type Bucket struct {
	LE    float64 `json:"le"`
	Count uint64  `json:"count"`
}

// histSample converts raw histogram data to exposed units, emitting only
// the informative bucket range (first to last non-empty), cumulative.
func histSample(d *HistogramData, scale float64) *HistogramSample {
	hs := &HistogramSample{Count: d.Count, Sum: float64(d.Sum) * scale}
	lo, hi := -1, -1
	for i, c := range d.Buckets {
		if c != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	if lo < 0 {
		return hs
	}
	var cum uint64
	for i := 0; i < lo; i++ {
		cum += d.Buckets[i] // all zero; keeps the loop honest if trimming changes
	}
	for i := lo; i <= hi; i++ {
		cum += d.Buckets[i]
		hs.Buckets = append(hs.Buckets, Bucket{LE: bucketBound(i) * scale, Count: cum})
	}
	return hs
}

// Quantile returns the approximate q-quantile (0..1) of a histogram
// sample in exposed units: the upper bound of the bucket holding the
// q-th observation. Returns 0 for an empty sample.
func (hs *HistogramSample) Quantile(q float64) float64 {
	if hs.Count == 0 || len(hs.Buckets) == 0 {
		return 0
	}
	rank := uint64(q * float64(hs.Count))
	if rank >= hs.Count {
		rank = hs.Count - 1
	}
	for _, b := range hs.Buckets {
		if b.Count > rank {
			return b.LE
		}
	}
	return hs.Buckets[len(hs.Buckets)-1].LE
}

// Mean returns the exact mean of a histogram sample in exposed units.
func (hs *HistogramSample) Mean() float64 {
	if hs.Count == 0 {
		return 0
	}
	return hs.Sum / float64(hs.Count)
}

// Snapshot captures every registered metric. Metrics sort by name and
// samples by label values, so equal registry states produce identical
// snapshots.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ms := make([]*metric, 0, len(r.metrics))
	for _, m := range r.metrics {
		ms = append(ms, m)
	}
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })

	snap := Snapshot{Metrics: make([]MetricSnapshot, 0, len(ms))}
	for _, m := range ms {
		s := MetricSnapshot{Name: m.name, Type: m.kind.String(), Help: m.help}
		switch {
		case len(m.labels) > 0:
			kids := *m.children.Load()
			keys := make([]string, 0, len(kids))
			for k := range kids {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			for _, k := range keys {
				ch := kids[k]
				labels := make(map[string]string, len(m.labels))
				for i, lk := range m.labels {
					labels[lk] = ch.values[i]
				}
				smp := Sample{Labels: labels}
				if ch.c != nil {
					smp.Value = float64(ch.c.Value()) * m.scale
				} else {
					var d HistogramData
					ch.h.Load(&d)
					smp.Histogram = histSample(&d, m.scale)
				}
				s.Samples = append(s.Samples, smp)
			}
		case m.fn != nil:
			s.Samples = []Sample{{Value: m.fn()}}
		case m.c != nil:
			s.Samples = []Sample{{Value: float64(m.c.Value()) * m.scale}}
		case m.g != nil:
			s.Samples = []Sample{{Value: float64(m.g.Value())}}
		case m.h != nil:
			var d HistogramData
			m.h.Load(&d)
			s.Samples = []Sample{{Histogram: histSample(&d, m.scale)}}
		}
		snap.Metrics = append(snap.Metrics, s)
	}
	return snap
}

// Find returns the snapshot's metric family by name, or nil.
func (s *Snapshot) Find(name string) *MetricSnapshot {
	for i := range s.Metrics {
		if s.Metrics[i].Name == name {
			return &s.Metrics[i]
		}
	}
	return nil
}
