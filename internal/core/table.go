package core

import (
	"fmt"
	"strconv"
	"strings"
)

// The one point-table renderer behind every sweep's text output: the
// mapping and node-count sweep formatters and the scenario result renderer
// all feed it, so study tables stay visually uniform and a new study only
// declares columns.

// TableColumn is one column of a point table.
type TableColumn struct {
	Name string
	// Width is the minimum printed width of the column.
	Width int
}

// FormatTableRow renders one line of a point table. The first column is
// left-aligned (the point label), every other column is right-aligned
// (measurements) — the shared layout of all study tables.
func FormatTableRow(cols []TableColumn, cells []string) string {
	var b strings.Builder
	for i, c := range cols {
		cell := ""
		if i < len(cells) {
			cell = cells[i]
		}
		if i > 0 {
			b.WriteByte(' ')
		}
		if i == 0 {
			fmt.Fprintf(&b, "%-*s", c.Width, cell)
		} else {
			fmt.Fprintf(&b, "%*s", c.Width, cell)
		}
	}
	b.WriteByte('\n')
	return b.String()
}

// FormatTableHeader renders the column-name line of a point table.
func FormatTableHeader(cols []TableColumn) string {
	headers := make([]string, len(cols))
	for i, c := range cols {
		headers[i] = c.Name
	}
	return FormatTableRow(cols, headers)
}

// FormatPointTable renders one header line plus a line per row — the
// batch form of the FormatTableHeader/FormatTableRow pair streaming
// renderers emit incrementally.
func FormatPointTable(cols []TableColumn, rows [][]string) string {
	var b strings.Builder
	b.WriteString(FormatTableHeader(cols))
	for _, row := range rows {
		b.WriteString(FormatTableRow(cols, row))
	}
	return b.String()
}

// placementColumns are the shared measurement columns of the placement
// sweeps; only the leading point column differs between them.
func placementColumns(point TableColumn) []TableColumn {
	return append([]TableColumn{point},
		TableColumn{Name: "base (s)", Width: 14},
		TableColumn{Name: "overlap (s)", Width: 14},
		TableColumn{Name: "speedup", Width: 10},
		TableColumn{Name: "intra bytes", Width: 14},
		TableColumn{Name: "inter bytes", Width: 14},
	)
}

func placementRow(label string, base, real, speedup float64, intra, inter int64) []string {
	return []string{
		label,
		fmt.Sprintf("%.6f", base),
		fmt.Sprintf("%.6f", real),
		fmt.Sprintf("%.3f", speedup),
		strconv.FormatInt(intra, 10),
		strconv.FormatInt(inter, 10),
	}
}

// FormatMappingPoints renders a placement sweep as a table.
func FormatMappingPoints(pts []MappingPoint) string {
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = placementRow(p.Mapping.String(), p.BaseFinishSec, p.RealFinishSec, p.SpeedupReal, p.IntraBytes, p.InterBytes)
	}
	return FormatPointTable(placementColumns(TableColumn{Name: "mapping", Width: 12}), rows)
}

// FormatNodeCountPoints renders a node-count sweep as a table.
func FormatNodeCountPoints(pts []NodeCountPoint) string {
	rows := make([][]string, len(pts))
	for i, p := range pts {
		rows[i] = placementRow(strconv.Itoa(p.Nodes), p.BaseFinishSec, p.RealFinishSec, p.SpeedupReal, p.IntraBytes, p.InterBytes)
	}
	return FormatPointTable(placementColumns(TableColumn{Name: "nodes", Width: 8}), rows)
}
