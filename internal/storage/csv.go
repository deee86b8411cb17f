package storage

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"inkfuse/internal/types"
)

// WriteCSV writes the first limit rows of the table (every row when limit
// <= 0) as CSV with a header row of column names: dates as YYYY-MM-DD,
// floats in their shortest round-tripping form. `cmd/tpchgen -csv` is its
// command-line face.
func WriteCSV(t *Table, w io.Writer, limit int) error {
	n := t.Rows()
	if limit > 0 && limit < n {
		n = limit
	}
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Schema))
	for i, c := range t.Schema {
		header[i] = c.Name
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	rec := make([]string, len(t.Cols))
	for r := 0; r < n; r++ {
		for i, col := range t.Cols {
			switch col.Kind {
			case types.Date:
				rec[i] = types.DateString(col.I32[r])
			case types.Float64:
				rec[i] = strconv.FormatFloat(col.F64[r], 'g', -1, 64)
			default:
				rec[i] = fmt.Sprintf("%v", col.Value(r))
			}
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
