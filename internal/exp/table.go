// Package exp is the benchmark harness that regenerates every table and
// figure in the paper's evaluation (§V). Each driver builds the full
// simulation stack — trace sources, Holt-Winters traffic, the processor
// model and a scheduler — runs it, and reports the same rows/series the
// paper plots. See DESIGN.md §4 for the experiment index.
package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Table is a titled grid of results that renders as aligned ASCII or CSV.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends one row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.Rows = append(t.Rows, row)
}

// AddNote appends a footnote rendered under the table.
func (t *Table) AddNote(format string, args ...interface{}) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	for i, c := range t.Columns {
		fmt.Fprintf(w, "%-*s", widths[i]+2, c)
		_ = i
	}
	fmt.Fprintln(w)
	for i := range t.Columns {
		fmt.Fprintf(w, "%-*s", widths[i]+2, strings.Repeat("-", widths[i]))
	}
	fmt.Fprintln(w)
	for _, row := range t.Rows {
		for i, cell := range row {
			fmt.Fprintf(w, "%-*s", widths[i]+2, cell)
		}
		fmt.Fprintln(w)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// CSV renders the table as comma-separated values (RFC-4180-ish; cells
// containing commas or quotes are quoted).
func (t *Table) CSV(w io.Writer) {
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				io.WriteString(w, ",")
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			io.WriteString(w, c)
		}
		io.WriteString(w, "\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
}

// JSON renders the table as a JSON object with title, columns, rows and
// notes — convenient for downstream plotting scripts.
func (t *Table) JSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
		Notes   []string   `json:"notes,omitempty"`
	}{t.Title, t.Columns, t.Rows, t.Notes})
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.4g", v) }

// pct formats a ratio as a percentage.
func pct(v float64) string { return fmt.Sprintf("%.2f%%", v*100) }

// n formats an integer count.
func n(v uint64) string { return fmt.Sprintf("%d", v) }
