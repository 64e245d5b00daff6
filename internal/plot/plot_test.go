package plot

import (
	"math"
	"strings"
	"testing"
)

func TestWriteScatterSVG(t *testing.T) {
	pts := []ScatterPoint{{0, 0}, {0.5, 10}, {1, 20}}
	var sb strings.Builder
	if err := WriteScatterSVG(&sb, "Fig 5a <test>", "time", "element", pts); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(out, "</svg>") {
		t.Fatal("not a complete SVG document")
	}
	if strings.Count(out, "<circle") != 3 {
		t.Fatalf("circles=%d, want 3", strings.Count(out, "<circle"))
	}
	if !strings.Contains(out, "Fig 5a &lt;test&gt;") {
		t.Fatal("title not escaped")
	}
}

func TestWriteBarsSVG(t *testing.T) {
	groups := []BarGroup{
		{Label: "cg", Values: []float64{1.18, 1.17}},
		{Label: "sweep3d", Values: []float64{1.05, math.Inf(1)}},
	}
	var sb strings.Builder
	if err := WriteBarsSVG(&sb, "Fig 6a", "speedup", []string{"real", "ideal"}, groups); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	// 3 solid bars + 1 hatched inf bar + 2 legend swatches.
	if got := strings.Count(out, "<rect"); got < 6 {
		t.Fatalf("rects=%d, want >=6", got)
	}
	if !strings.Contains(out, "stroke-dasharray") {
		t.Fatal("infinite value not drawn hatched")
	}
	if !strings.Contains(out, ">inf<") {
		t.Fatal("infinite value not labelled")
	}
	for _, want := range []string{"cg", "sweep3d", "real", "ideal"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
}

func TestScatterDegenerateRanges(t *testing.T) {
	// Points collapsing to one value must not divide by zero.
	var sb strings.Builder
	if err := WriteScatterSVG(&sb, "t", "x", "y", []ScatterPoint{{0.5, 0}, {0.5, 0}}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "NaN") {
		t.Fatal("NaN leaked into SVG coordinates")
	}
}
