// Package plot renders the reproduction's figures as standalone SVG files
// using only the standard library: scatter plots (Fig. 5) and grouped
// bar charts (Fig. 6). The goal is
// publication-shaped artifacts from `cmd/experiments -svgdir`, not a
// general plotting toolkit.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Size of the drawing canvas and margins, in SVG user units.
const (
	width   = 640
	height  = 420
	marginL = 70
	marginR = 20
	marginT = 40
	marginB = 55
)

var palette = []string{"#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd", "#8c564b"}

type svgBuilder struct {
	b strings.Builder
}

func (s *svgBuilder) open(title string) {
	fmt.Fprintf(&s.b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`,
		width, height, width, height)
	s.b.WriteString(`<rect width="100%" height="100%" fill="white"/>`)
	fmt.Fprintf(&s.b, `<text x="%d" y="24" font-family="sans-serif" font-size="16" text-anchor="middle">%s</text>`,
		width/2, esc(title))
}

func (s *svgBuilder) axes(xlabel, ylabel string) {
	fmt.Fprintf(&s.b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		marginL, height-marginB, width-marginR, height-marginB)
	fmt.Fprintf(&s.b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`,
		marginL, marginT, marginL, height-marginB)
	fmt.Fprintf(&s.b, `<text x="%d" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle">%s</text>`,
		(marginL+width-marginR)/2, height-12, esc(xlabel))
	fmt.Fprintf(&s.b, `<text x="16" y="%d" font-family="sans-serif" font-size="12" text-anchor="middle" transform="rotate(-90 16 %d)">%s</text>`,
		(marginT+height-marginB)/2, (marginT+height-marginB)/2, esc(ylabel))
}

func (s *svgBuilder) close() string {
	s.b.WriteString(`</svg>`)
	return s.b.String()
}

func esc(t string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(t)
}

// plotArea maps data coordinates to canvas coordinates.
type plotArea struct {
	x0, x1, y0, y1 float64 // data ranges
}

func (a plotArea) px(x float64) float64 {
	if a.x1 == a.x0 {
		return marginL
	}
	return marginL + (x-a.x0)/(a.x1-a.x0)*float64(width-marginL-marginR)
}

func (a plotArea) py(y float64) float64 {
	if a.y1 == a.y0 {
		return float64(height - marginB)
	}
	return float64(height-marginB) - (y-a.y0)/(a.y1-a.y0)*float64(height-marginT-marginB)
}

// ticks emits n axis ticks with labels along each axis.
func (s *svgBuilder) ticks(a plotArea, n int, fmtX, fmtY string) {
	for i := 0; i <= n; i++ {
		x := a.x0 + (a.x1-a.x0)*float64(i)/float64(n)
		px := a.px(x)
		fmt.Fprintf(&s.b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="black"/>`,
			px, height-marginB, px, height-marginB+5)
		fmt.Fprintf(&s.b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`,
			px, height-marginB+18, fmt.Sprintf(fmtX, x))
		y := a.y0 + (a.y1-a.y0)*float64(i)/float64(n)
		py := a.py(y)
		fmt.Fprintf(&s.b, `<line x1="%d" y1="%.1f" x2="%d" y2="%.1f" stroke="black"/>`,
			marginL-5, py, marginL, py)
		fmt.Fprintf(&s.b, `<text x="%d" y="%.1f" font-family="sans-serif" font-size="10" text-anchor="end">%s</text>`,
			marginL-8, py+3, fmt.Sprintf(fmtY, y))
	}
}

// ScatterPoint is one (x, y) sample.
type ScatterPoint struct {
	X, Y float64
}

// WriteScatterSVG renders a Fig. 5-style scatter: x is the relative
// interval time (0..1), y the element offset.
func WriteScatterSVG(w io.Writer, title, xlabel, ylabel string, pts []ScatterPoint) error {
	var s svgBuilder
	s.open(title)
	s.axes(xlabel, ylabel)
	ymax := 1.0
	for _, p := range pts {
		if p.Y > ymax {
			ymax = p.Y
		}
	}
	a := plotArea{x0: 0, x1: 1, y0: 0, y1: ymax}
	s.ticks(a, 4, "%.2f", "%.0f")
	for _, p := range pts {
		fmt.Fprintf(&s.b, `<circle cx="%.1f" cy="%.1f" r="1.5" fill="%s" fill-opacity="0.6"/>`,
			a.px(p.X), a.py(p.Y), palette[0])
	}
	_, err := io.WriteString(w, s.close())
	return err
}

// BarGroup is one labelled cluster of bars (one per series).
type BarGroup struct {
	Label  string
	Values []float64 // one value per series; NaN/Inf drawn as a hatched max bar
}

// WriteBarsSVG renders a Fig. 6-style grouped bar chart.
func WriteBarsSVG(w io.Writer, title, ylabel string, series []string, groups []BarGroup) error {
	var s svgBuilder
	s.open(title)
	s.axes("", ylabel)
	ymax := 1.0
	for _, g := range groups {
		for _, v := range g.Values {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && v > ymax {
				ymax = v
			}
		}
	}
	ymax *= 1.1
	a := plotArea{x0: 0, x1: float64(len(groups)), y0: 0, y1: ymax}
	s.ticks(a, 4, "%.0f", "%.2f")
	groupW := (float64(width-marginL-marginR) / float64(len(groups)))
	barW := groupW * 0.8 / float64(len(series))
	for gi, g := range groups {
		gx := float64(marginL) + groupW*float64(gi) + groupW*0.1
		for si, v := range g.Values {
			x := gx + barW*float64(si)
			col := palette[si%len(palette)]
			if math.IsInf(v, 1) || math.IsNaN(v) {
				// Unbounded value: full-height hatched bar.
				fmt.Fprintf(&s.b, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" fill-opacity="0.3" stroke="%s" stroke-dasharray="3,2"/>`,
					x, marginT, barW, height-marginT-marginB, col, col)
				fmt.Fprintf(&s.b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="9" text-anchor="middle">inf</text>`,
					x+barW/2, marginT-4)
				continue
			}
			top := a.py(v)
			fmt.Fprintf(&s.b, `<rect x="%.1f" y="%.1f" width="%.1f" height="%.1f" fill="%s"/>`,
				x, top, barW, float64(height-marginB)-top, col)
		}
		fmt.Fprintf(&s.b, `<text x="%.1f" y="%d" font-family="sans-serif" font-size="10" text-anchor="middle">%s</text>`,
			gx+groupW*0.4, height-marginB+18, esc(g.Label))
	}
	for si, name := range series {
		fmt.Fprintf(&s.b, `<rect x="%d" y="%d" width="10" height="10" fill="%s"/>`,
			width-marginR-130, marginT+16*si, palette[si%len(palette)])
		fmt.Fprintf(&s.b, `<text x="%d" y="%d" font-family="sans-serif" font-size="11">%s</text>`,
			width-marginR-115, marginT+9+16*si, esc(name))
	}
	_, err := io.WriteString(w, s.close())
	return err
}
