package core

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"repro/internal/network"
	"repro/internal/tracer"
)

// reportFor builds a small report for wire tests. apps imports core, so
// the app registry can't be used here; a minimal two-rank kernel suffices.
func reportFor(t *testing.T) *Report {
	t.Helper()
	app := App{Name: "wiretest", Kernel: func(p *tracer.Proc) {
		a := p.NewArray("buf", 64)
		for i := 0; i < a.Len(); i++ {
			a.Store(i, float64(i))
		}
		p.Compute(1000)
		if p.Rank() == 0 {
			p.Send(1, 1, a)
		} else if p.Rank() == 1 {
			b := p.NewArray("in", 64)
			p.Recv(b, 0, 1)
			for i := 0; i < b.Len(); i++ {
				b.Load(i)
			}
		}
	}}
	rep, err := Analyze(context.Background(), nil, nil, app, 2, tracer.DefaultConfig(), network.Testbed(2))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestWireReportDeterministic(t *testing.T) {
	rep := reportFor(t)
	w1, err := rep.Wire()
	if err != nil {
		t.Fatal(err)
	}
	b1, err := json.Marshal(w1)
	if err != nil {
		t.Fatal(err)
	}
	// A second wire conversion of a freshly recomputed report marshals to
	// the same bytes — the property the service result cache relies on.
	w2, err := reportFor(t).Wire()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(w2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("wire bytes differ:\n%s\n%s", b1, b2)
	}
	if len(w1.Flavors) != 3 || w1.Flavors[0].Flavor != FlavorBase {
		t.Fatalf("flavors = %+v", w1.Flavors)
	}
	if w1.PlatformDigest == "" || w1.Flavors[1].TraceDigest == "" {
		t.Fatal("digests missing from wire report")
	}
}

// TestWireReportNaNSafe marshals an Alya-style report whose pattern
// statistics carry NaN (unchunkable single-element buffers, which the
// tracer never chunks): json.Marshal must produce nulls, not fail on NaN.
func TestWireReportNaNSafe(t *testing.T) {
	app := App{Name: "scalar", Kernel: func(p *tracer.Proc) {
		a := p.NewArray("x", 1)
		a.Store(0, 1)
		p.Compute(100)
		if p.Rank() == 0 {
			p.Send(1, 1, a)
		} else if p.Rank() == 1 {
			b := p.NewArray("y", 1)
			p.Recv(b, 0, 1)
			b.Load(0)
		}
	}}
	rep, err := Analyze(context.Background(), nil, nil, app, 2, tracer.DefaultConfig(), network.Testbed(2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Patterns == nil || !math.IsNaN(rep.Patterns.AppProduction.Quarter) {
		t.Skip("kernel did not produce unchunkable statistics; NaN path not reachable")
	}
	w, err := rep.Wire()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(w)
	if err != nil {
		t.Fatalf("marshal with NaN stats: %v", err)
	}
	if !strings.Contains(string(b), `"quarter_pct":null`) {
		t.Fatalf("NaN did not become null: %s", b)
	}
	if w.Patterns.AppProduction.Chunkable {
		t.Fatal("chunkable flag lost")
	}
}
