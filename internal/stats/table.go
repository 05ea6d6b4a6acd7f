package stats

import (
	"fmt"
	"strings"
)

// Table renders fixed-width text tables for experiment output — the
// rows/series each paper table and figure reports, printed side by side
// with the paper's numbers.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are dropped,
// missing cells render empty.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row where each cell is produced by fmt.Sprint on the
// corresponding value, with floats rendered to 3 significant-ish digits.
func (t *Table) AddRowf(cells ...any) {
	strCells := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			strCells[i] = FormatFloat(v)
		case float32:
			strCells[i] = FormatFloat(float64(v))
		default:
			strCells[i] = fmt.Sprint(c)
		}
	}
	t.AddRow(strCells...)
}

// Headers returns the column headers.
func (t *Table) Headers() []string { return t.headers }

// Rows returns the rendered rows; cells align with Headers. The slices
// are the table's own storage — callers must not mutate them.
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len([]rune(h))
	}
	for _, row := range t.rows {
		for i, c := range row {
			if l := len([]rune(c)); l > widths[i] {
				widths[i] = l
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-len([]rune(c))))
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// FormatFloat renders a float compactly: integers without decimals,
// small values with enough precision to be meaningful.
func FormatFloat(v float64) string {
	av := v
	if av < 0 {
		av = -av
	}
	switch {
	case v == float64(int64(v)) && av < 1e15:
		return fmt.Sprintf("%d", int64(v))
	case av >= 100:
		return fmt.Sprintf("%.0f", v)
	case av >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
