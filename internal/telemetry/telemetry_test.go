package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "a counter")
	c.Inc()
	c.Add(4)
	c.AddInt(-3) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("c_total", "a counter"); again != c {
		t.Fatal("re-registering a counter must return the same instance")
	}
	g := r.Gauge("g", "a gauge")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
}

func TestHistogramBucketing(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", "test", 1)
	for _, v := range []int64{0, 1, 1, 2, 3, 4, 1000, -5} {
		h.Observe(v)
	}
	var d HistogramData
	h.Load(&d)
	if d.Count != 8 {
		t.Fatalf("count = %d, want 8", d.Count)
	}
	if d.Sum != 0+1+1+2+3+4+1000+0 {
		t.Fatalf("sum = %d", d.Sum)
	}
	// v=0 and the clamped -5 land in bucket 0; v=1 twice in bucket 1;
	// 2,3 in bucket 2; 4 in bucket 3; 1000 in bucket 10.
	want := map[int]uint64{0: 2, 1: 2, 2: 2, 3: 1, 10: 1}
	for i, c := range d.Buckets {
		if c != want[i] {
			t.Fatalf("bucket[%d] = %d, want %d", i, c, want[i])
		}
	}
}

// TestHistogramConcurrentExact is the satellite requirement: parallel
// recording under -race must merge to exact counts and sums.
func TestHistogramConcurrentExact(t *testing.T) {
	r := New()
	h := r.Histogram("h_seconds", "test", 1)
	const workers = 8
	const perWorker = 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(int64(w + 1))
			}
		}(w)
	}
	wg.Wait()
	var d HistogramData
	h.Load(&d)
	if want := uint64(workers * perWorker); d.Count != want {
		t.Fatalf("count = %d, want %d", d.Count, want)
	}
	wantSum := uint64(0)
	for w := 1; w <= workers; w++ {
		wantSum += uint64(w) * perWorker
	}
	if d.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", d.Sum, wantSum)
	}
	// Per-bucket exactness: worker value w+1 lands in bucket bits.Len64.
	var total uint64
	for _, c := range d.Buckets {
		total += c
	}
	if total != d.Count {
		t.Fatalf("bucket total = %d, want %d", total, d.Count)
	}
}

func TestVecChildrenAndConcurrency(t *testing.T) {
	r := New()
	v := r.CounterVec("req_total", "requests", "endpoint", "code")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes := []string{"200", "500"}
			for j := 0; j < 1000; j++ {
				v.With("/a", codes[i%2]).Inc()
			}
		}(i)
	}
	wg.Wait()
	if got := v.With("/a", "200").Value() + v.With("/a", "500").Value(); got != 8000 {
		t.Fatalf("vec total = %d, want 8000", got)
	}
	hv := r.HistogramVec("stage_seconds", "stages", 1e-9, "stage")
	if hv.With("compile") != hv.With("compile") {
		t.Fatal("With must return a stable child")
	}
}

// TestRecordingAllocs pins the hot path: recording into counters,
// histograms, and warm vec children must not allocate.
func TestRecordingAllocs(t *testing.T) {
	r := New()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", 1e-9)
	v := r.CounterVec("v_total", "", "shard")
	v.With("0").Inc() // materialize the child outside the measured loop
	hv := r.HistogramVec("hv_seconds", "", 1e-9, "stage")
	hv.With("replay").Observe(1)
	if n := testing.AllocsPerRun(100, func() {
		c.Add(2)
		g.Set(42)
		h.Observe(12345)
		v.With("0").Inc()
		hv.With("replay").Observe(6789)
	}); n != 0 {
		t.Fatalf("recording allocated %v allocs/op, want 0", n)
	}
}

func TestSnapshotDeterminism(t *testing.T) {
	r := New()
	v := r.CounterVec("b_total", "", "k")
	v.With("z").Add(1)
	v.With("a").Add(2)
	r.Counter("a_total", "first").Add(3)
	r.GaugeFunc("c_gauge", "", func() float64 { return 1.5 })
	h := r.Histogram("d_seconds", "", 1e-9)
	h.Observe(1500)

	s1, s2 := r.Snapshot(), r.Snapshot()
	j1, _ := json.Marshal(s1)
	j2, _ := json.Marshal(s2)
	if string(j1) != string(j2) {
		t.Fatalf("snapshots differ:\n%s\n%s", j1, j2)
	}
	if s1.Metrics[0].Name != "a_total" || s1.Metrics[1].Name != "b_total" {
		t.Fatalf("metrics not sorted: %s, %s", s1.Metrics[0].Name, s1.Metrics[1].Name)
	}
	bs := s1.Find("b_total")
	if bs == nil || len(bs.Samples) != 2 || bs.Samples[0].Labels["k"] != "a" {
		t.Fatalf("vec samples not sorted by label value: %+v", bs)
	}
	ds := s1.Find("d_seconds")
	hs := ds.Samples[0].Histogram
	if hs == nil || hs.Count != 1 || hs.Sum != float64(1500)*1e-9 {
		t.Fatalf("histogram sample = %+v", hs)
	}
	// 1500ns lands in bucket 11 (1024..2047); cumulative count 1 at its bound.
	last := hs.Buckets[len(hs.Buckets)-1]
	if last.Count != 1 || last.LE != float64(2047)*1e-9 {
		t.Fatalf("last bucket = %+v", last)
	}
}

func TestQuantileAndMean(t *testing.T) {
	var h Histogram
	for i := 0; i < 90; i++ {
		h.Observe(10) // bucket 4, bound 15
	}
	for i := 0; i < 10; i++ {
		h.Observe(1000) // bucket 10, bound 1023
	}
	var d HistogramData
	h.Load(&d)
	hs := histSample(&d, 1)
	if got := hs.Quantile(0.5); got != 15 {
		t.Fatalf("p50 = %g, want 15", got)
	}
	if got := hs.Quantile(0.95); got != 1023 {
		t.Fatalf("p95 = %g, want 1023", got)
	}
	if got := hs.Mean(); math.Abs(got-109) > 1e-9 {
		t.Fatalf("mean = %g, want 109", got)
	}
}

func TestCounterFuncAndScale(t *testing.T) {
	r := New()
	n := 40.0
	r.CounterFunc("fn_total", "", func() float64 { return n })
	r.CounterScale("nanos_seconds_total", "", 1e-9).Add(2_500_000_000)
	s := r.Snapshot()
	if got := s.Find("fn_total").Samples[0].Value; got != 40 {
		t.Fatalf("counterfunc = %g", got)
	}
	if got := s.Find("nanos_seconds_total").Samples[0].Value; got != 2.5 {
		t.Fatalf("scaled counter = %g, want 2.5", got)
	}
}

func TestTimingsOutput(t *testing.T) {
	r := New()
	r.Histogram("stage_seconds", "", 1e-9).Observe(2_000_000)
	r.Counter("events_total", "").Add(12)
	var b strings.Builder
	if err := WriteTimings(&b, r); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "stage_seconds") || !strings.Contains(out, "events_total") {
		t.Fatalf("timings missing metrics:\n%s", out)
	}
	if !strings.Contains(out, "count=1") {
		t.Fatalf("timings missing histogram count:\n%s", out)
	}
}
