package main

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// TestPercentileRule: the reported tail always has at least minTail
// samples beyond it, and is the highest usual percentile that does.
func TestPercentileRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if got := pct(xs, 90); got != 90 {
		t.Fatalf("p90 of 1..100 = %g, want 90", got)
	}
	if got := pct(xs, 50); got != 50 {
		t.Fatalf("p50 of 1..100 = %g, want 50", got)
	}
	if got := beyond(100, 90); got != 10 {
		t.Fatalf("beyond(100, 90) = %d, want 10", got)
	}
	if got := tailPct(99); got != 75 {
		t.Fatalf("tailPct(99) = %d, want 75 (p90 would leave 9 beyond)", got)
	}
	order := []int{99, 95, 90, 75, 50}
	for n := 1; n <= 5000; n++ {
		p := tailPct(n)
		if p == 0 {
			if beyond(n, 50) >= minTail {
				t.Fatalf("n=%d: no tail reported though p50 has %d beyond", n, beyond(n, 50))
			}
			continue
		}
		if beyond(n, p) < minTail {
			t.Fatalf("n=%d: p%d has only %d samples beyond", n, p, beyond(n, p))
		}
		for _, q := range order {
			if q > p && beyond(n, q) >= minTail {
				t.Fatalf("n=%d: reported p%d though p%d also has %d beyond", n, p, q, beyond(n, q))
			}
		}
	}
}

// TestGeneratorDeterminism: one seed gives identical inputs, the held-out
// seed gives different ones.
func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		n := 40
		if w.name == "cached-mix" {
			n = 400
		}
		gen := func(seed int64) []byte {
			in, err := generate(w, seed, n)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(in)
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		a, b, c := gen(1), gen(1), gen(2)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 1 generated different inputs twice", w.name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w.name)
		}
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "0", "-trace", "-all", "-trace", "1"})
	want := []string{"--workload", "x", "--trace=0", "-trace", "-all", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("normalizeArgs = %q, want %q", got, want)
	}
}

// TestBenchmarkFile: BENCHMARK.json lists exactly the workloads and
// metrics the benchmark reports, with bounds the contract allows.
func TestBenchmarkFile(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, bench runs %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), bench has %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, file, code []metricDef, bounded bool) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, bench reports %d", kind, len(file), len(code))
		}
		for i := range code {
			f, c := file[i], code[i]
			if f.Name != c.Name || f.Unit != c.Unit || f.Better != c.Better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, bench has %+v", kind, i, f, c)
			}
			if bounded && (f.Bound <= 0 || f.Bound > 0.25) {
				t.Errorf("%s %s: bound %g outside (0, 0.25]", kind, f.Name, f.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, e2eMetrics, true)
	check("per_layer", bf.PerLayer, layerMetrics, false)
	if !reflect.DeepEqual(bf.Paths, []string{"bench"}) {
		t.Errorf("paths = %q, want [bench]", bf.Paths)
	}
}

// TestSmoke runs every workload at a tiny scale, checks included, and the
// cheaper ones traced as well.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range workloads {
		traced := []bool{false}
		if w.name != "big-point" {
			traced = append(traced, true)
		}
		for _, tr := range traced {
			var out bytes.Buffer
			cfg := config{workload: w.name, seed: 1, scale: 0.005, trace: tr, setups: 1, outDir: t.TempDir()}
			res, err := runWorkload(ctx, cfg, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, tr, err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v failed=%d\n%s", w.name, tr, res.Correct, res.Failed, out.String())
			}
			defs := e2eMetrics
			if tr {
				defs = layerMetrics
			}
			if len(res.Metrics) != len(defs) {
				t.Fatalf("%s trace=%v: %d metrics, want %d", w.name, tr, len(res.Metrics), len(defs))
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not the result: %v", w.name, err)
			}
			if !last.Correct || last.Attempted != res.Attempted {
				t.Fatalf("%s: printed result %+v differs from returned %+v", w.name, last, *res)
			}
		}
	}
}
