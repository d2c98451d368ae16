// Package experiments contains one driver per table and figure of the
// paper's evaluation (§5 examples and §8). Each driver regenerates the
// corresponding rows/series as plain-text tables; cmd/parmac-figures prints
// them.
//
// Workloads use the synthetic dataset substitutes documented in
// internal/dataset at scaled-down sizes (the scale used is printed in each
// table's notes).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
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
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// RunConfig controls experiment scale.
type RunConfig struct {
	// Quick shrinks workloads for tests and smoke benches.
	Quick bool
	Seed  int64
}

// Experiment is one regenerable paper artefact.
type Experiment struct {
	ID    string // e.g. "fig10"
	Title string
	Run   func(cfg RunConfig) []*Table
}

var registry = map[string]Experiment{}

func register(e Experiment) { registry[e.ID] = e }

// ByID returns the experiment with the given id.
func ByID(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// All lists the registered experiments sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RunAndPrint runs one experiment and renders its tables.
func RunAndPrint(id string, cfg RunConfig, w io.Writer) error {
	e, ok := ByID(id)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q", id)
	}
	for _, t := range e.Run(cfg) {
		t.Fprint(w)
	}
	return nil
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func d(v int) string      { return fmt.Sprintf("%d", v) }
func g(v float64) string  { return fmt.Sprintf("%.4g", v) }
