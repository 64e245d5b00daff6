package core

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ScenarioPrinter renders a scenario result incrementally: the preamble
// and table header are written up front from the stream's header frame,
// then each point becomes rows (finish/traffic) or a section (what-if,
// report) the moment it arrives. Feeding it a complete result in order
// reproduces ScenarioResult.Format byte-for-byte — the CLIs print live
// from RunScenarioStream with identical final output to the batch path.
type ScenarioPrinter struct {
	w    io.Writer
	out  OutputKind
	cols []TableColumn
	idx  int
}

// NewScenarioPrinter writes the preamble (and, for tabular outputs, the
// column header) and returns a printer for the points that follow.
func NewScenarioPrinter(w io.Writer, hdr *ScenarioHeader) (*ScenarioPrinter, error) {
	p := &ScenarioPrinter{w: w, out: hdr.Output}
	if _, err := fmt.Fprintf(w, "scenario %s: %s over %d point(s)\n", hdr.App, hdr.Output, hdr.GridPoints); err != nil {
		return nil, err
	}
	switch hdr.Output {
	case OutputFinish, OutputTraffic:
		p.cols = make([]TableColumn, 0, len(hdr.Axes)+4)
		for i, ax := range hdr.Axes {
			w := 14
			if i == 0 {
				w = 12
			}
			p.cols = append(p.cols, TableColumn{Name: string(ax), Width: w})
		}
		if len(hdr.Axes) == 0 {
			p.cols = append(p.cols, TableColumn{Name: "point", Width: 12})
		}
		p.cols = append(p.cols, TableColumn{Name: "flavor", Width: 14}, TableColumn{Name: "finish (s)", Width: 14})
		if hdr.Output == OutputTraffic {
			p.cols = append(p.cols, TableColumn{Name: "intra bytes", Width: 14}, TableColumn{Name: "inter bytes", Width: 14})
		}
		if _, err := io.WriteString(w, FormatTableHeader(p.cols)); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Point renders the next grid point. Points must arrive in result
// order.
func (p *ScenarioPrinter) Point(pt ScenarioPoint) error {
	pi := p.idx
	p.idx++
	switch p.out {
	case OutputFinish, OutputTraffic:
		for _, m := range pt.Flavors {
			row := make([]string, 0, len(p.cols))
			for _, c := range pt.Coords {
				row = append(row, c.Value)
			}
			if len(pt.Coords) == 0 {
				row = append(row, strconv.Itoa(pi))
			}
			row = append(row, string(m.Flavor), fmt.Sprintf("%.6f", m.FinishSec))
			if p.out == OutputTraffic && m.Traffic != nil {
				row = append(row,
					strconv.FormatInt(m.Traffic.IntraBytes, 10),
					strconv.FormatInt(m.Traffic.InterBytes, 10))
			}
			if _, err := io.WriteString(p.w, FormatTableRow(p.cols, row)); err != nil {
				return err
			}
		}
	case OutputWhatIf:
		if len(pt.Coords) > 0 {
			if _, err := fmt.Fprintf(p.w, "\n-- %s --\n", coordsLabel(pt.Coords)); err != nil {
				return err
			}
		}
		if pt.WhatIf != nil {
			if _, err := io.WriteString(p.w, pt.WhatIf.Format()); err != nil {
				return err
			}
		}
	case OutputReport:
		if len(pt.Coords) > 0 {
			if _, err := fmt.Fprintf(p.w, "\n-- %s --\n", coordsLabel(pt.Coords)); err != nil {
				return err
			}
		}
		if rep := pt.Report; rep != nil {
			if _, err := fmt.Fprintf(p.w, "%s on %s\n", rep.App, rep.Platform); err != nil {
				return err
			}
			for _, f := range rep.Flavors {
				if _, err := fmt.Fprintf(p.w, "  %-14s finish %.6f s\n", f.Flavor, f.FinishSec); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(p.w, "  speedup real %.3f, ideal %.3f\n", rep.SpeedupReal, rep.SpeedupIdeal); err != nil {
				return err
			}
		}
	}
	return nil
}

// Format renders the result as text: finish/traffic outputs become one
// point table (a row per grid point and flavor), what-if and report
// outputs a section per grid point. It is the batch form of
// ScenarioPrinter, and matches a streamed rendering byte-for-byte.
func (r *ScenarioResult) Format() string {
	hdr := r.ScenarioHeader
	// Results from before grid_points existed carry 0; a complete result
	// has exactly one point per grid coordinate either way.
	hdr.GridPoints = len(r.Points)
	var b strings.Builder
	p, _ := NewScenarioPrinter(&b, &hdr) // strings.Builder never errors
	for _, pt := range r.Points {
		_ = p.Point(pt)
	}
	return b.String()
}
