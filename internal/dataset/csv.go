package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"repro/internal/vec"
)

// LoadCSV reads a dataset of float features from CSV: one point per row, one
// feature per column, no header detection beyond skipping a first row that
// fails to parse. This is the ingestion path for users bringing their own
// descriptors instead of the synthetic benchmarks.
func LoadCSV(r io.Reader) (*Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1 // validate manually for a better error
	var rows [][]float64
	dims := -1
	line := 0
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: csv line %d: %w", line+1, err)
		}
		line++
		vals := make([]float64, len(rec))
		ok := true
		for j, f := range rec {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil {
				ok = false
				break
			}
			vals[j] = v
		}
		if !ok {
			if line == 1 {
				continue // header row
			}
			return nil, fmt.Errorf("dataset: csv line %d: non-numeric field", line)
		}
		if dims == -1 {
			dims = len(vals)
		} else if len(vals) != dims {
			return nil, fmt.Errorf("dataset: csv line %d has %d fields, want %d", line, len(vals), dims)
		}
		rows = append(rows, vals)
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: csv contains no data rows")
	}
	m := vec.NewMatrix(len(rows), dims)
	for i, row := range rows {
		copy(m.Row(i), row)
	}
	return FromMatrix(m), nil
}
