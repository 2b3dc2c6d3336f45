// Package experiments contains one harness per table and figure of the
// paper's evaluation (Section 7, Appendices C–D). Each harness generates its
// dataset(s), runs the relevant subsystem, and prints the same rows/series
// the paper reports. Absolute numbers differ (the substrate is a simulator,
// not SQL Server on 2011 hardware); the shapes — who wins, by what factor,
// where the curves converge — are the reproduction target. Every report but
// the two measured sweeps (ext-pool, ext-scan) is pinned at QuickScale, wall
// clock masked, by testdata/golden/<id>.txt.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// clock marks a table cell or note argument derived from the wall clock, the
// one content of a report that differs run to run. It formats as the value it
// wraps; maskClocks empties it, and an empty clock formats as "<clock>".
type clock struct{ v any }

func (c clock) Format(f fmt.State, verb rune) {
	if c.v == nil {
		io.WriteString(f, "<clock>")
		return
	}
	fmt.Fprintf(f, fmt.FormatString(f, verb), c.v)
}

// wallClock is a duration cell, rounded to the millisecond.
func wallClock(d time.Duration) clock { return clock{d.Round(time.Millisecond)} }

// Table is a printable result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	// clocks holds the {row, column} of every clock cell.
	clocks [][2]int
}

// Add appends a row, formatting each cell with %v.
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.3g", v)
		case clock:
			t.clocks = append(t.clocks, [2]int{len(t.Rows), i})
			row[i] = fmt.Sprintf("%v", v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// Report is the output of one experiment.
type Report struct {
	ID     string // e.g. "table1", "fig12"
	Title  string
	Tables []*Table
	Notes  []string
	// clockNotes keeps how each note with a clock argument was made.
	clockNotes []clockNote
}

type clockNote struct {
	i      int
	format string
	args   []interface{}
}

// NewTable adds a table to the report.
func (r *Report) NewTable(title string, header ...string) *Table {
	t := &Table{Title: title, Header: header}
	r.Tables = append(r.Tables, t)
	return t
}

// Notef appends a formatted note.
func (r *Report) Notef(format string, args ...interface{}) {
	for _, a := range args {
		if _, ok := a.(clock); ok {
			r.clockNotes = append(r.clockNotes, clockNote{len(r.Notes), format, args})
			break
		}
	}
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// maskClocks replaces every clock cell and note argument with "<clock>", so
// the rendered report — column widths included — is the same on every run.
func (r *Report) maskClocks() {
	for _, t := range r.Tables {
		for _, rc := range t.clocks {
			t.Rows[rc[0]][rc[1]] = fmt.Sprint(clock{})
		}
	}
	for _, n := range r.clockNotes {
		args := make([]interface{}, len(n.args))
		for i, a := range n.args {
			if _, ok := a.(clock); ok {
				a = clock{}
			}
			args[i] = a
		}
		r.Notes[n.i] = fmt.Sprintf(n.format, args...)
	}
}

// Render writes the whole report.
func (r *Report) Render(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	for _, t := range r.Tables {
		fmt.Fprintln(w)
		t.Render(w)
	}
	if len(r.Notes) > 0 {
		fmt.Fprintln(w)
		for _, n := range r.Notes {
			fmt.Fprintf(w, "  note: %s\n", n)
		}
	}
	fmt.Fprintln(w)
}

// Scale controls experiment sizes so benches can run reduced versions.
type Scale struct {
	// LineitemRows sizes the TPC-H databases.
	LineitemRows int
	// SalesRows sizes the Sales database.
	SalesRows int
	// IndexSampleCount caps how many indexes error studies measure.
	IndexSampleCount int
	// Budgets are the space budgets as fractions of the heap-only DB size.
	Budgets []float64
	// Seed drives all generators.
	Seed int64
}

// DefaultScale is the full (README-documented) experiment scale.
func DefaultScale() Scale {
	return Scale{
		LineitemRows:     12000,
		SalesRows:        12000,
		IndexSampleCount: 48,
		Budgets:          []float64{0.03, 0.1, 0.25, 0.5, 1.0},
		Seed:             42,
	}
}

// QuickScale is a reduced scale for benchmarks and smoke tests.
func QuickScale() Scale {
	return Scale{
		LineitemRows:     4000,
		SalesRows:        4000,
		IndexSampleCount: 12,
		Budgets:          []float64{0.1, 0.5},
		Seed:             42,
	}
}
