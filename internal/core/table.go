package core

import (
	"fmt"
	"strings"
)

// The one point-table renderer behind every study's text output: the
// scenario result renderer and the CLIs' own study tables all feed it, so
// study tables stay visually uniform and a new study only declares
// columns.

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
