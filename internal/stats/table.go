package stats

import (
	"fmt"
	"strings"
)

// Table accumulates rows of strings and renders them as an aligned text
// table or as CSV. The figure-regeneration harness prints every reproduced
// table and figure series through this type so that output formatting is
// uniform across experiments.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// Title returns the table's title.
func (t *Table) Title() string { return t.title }

// AddRow appends a row; values are formatted with %v, floats with 4
// significant digits.
func (t *Table) AddRow(cells ...interface{}) {
	t.rows = append(t.rows, FormatRow(cells...))
}

// AddStrings appends a pre-formatted row. The experiment cells of
// internal/sim produce rows in this form so a sweep can format once and
// assemble tables from out-of-order cell results.
func (t *Table) AddStrings(row []string) {
	t.rows = append(t.rows, row)
}

// FormatRow renders cell values exactly the way AddRow would: %v for
// everything, floats with 4 significant digits.
func FormatRow(cells ...interface{}) []string {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = trimFloat(v)
		case float32:
			row[i] = trimFloat(float64(v))
		default:
			row[i] = fmt.Sprint(c)
		}
	}
	return row
}

// NumRows returns the number of data rows added so far.
//
//em2:reference-only the table and sim tests count rows with it
func (t *Table) NumRows() int { return len(t.rows) }

// Rows returns the formatted cell contents (no copy; callers must not
// mutate).
//
//em2:reference-only the sim tests read table cells through it
func (t *Table) Rows() [][]string { return t.rows }

// String renders the table with a title line, a header row, a rule, and
// column-aligned data rows.
func (t *Table) String() string {
	width := make([]int, len(t.headers))
	for i, h := range t.headers {
		width[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(width) && len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	total := 0
	for _, w := range width {
		total += w
	}
	b.WriteString(strings.Repeat("-", total+2*(len(width)-1)))
	b.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// CSV renders the table as comma-separated values with a header row. Cells
// containing commas or quotes are quoted per RFC 4180.
func (t *Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteByte('"')
				b.WriteString(strings.ReplaceAll(c, `"`, `""`))
				b.WriteByte('"')
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.headers)
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4g", v)
	return s
}

// Counters is a set of named int64 counters with deterministic (sorted)
// rendering order. The zero value is ready to use.
type Counters struct {
	m map[string]int64
}

// Inc adds delta to the named counter.
func (c *Counters) Inc(name string, delta int64) {
	if c.m == nil {
		c.m = make(map[string]int64)
	}
	c.m[name] += delta
}

// Get returns the value of the named counter (0 if never incremented).
func (c *Counters) Get(name string) int64 { return c.m[name] }

// Names returns the counter names in sorted order.
func (c *Counters) Names() []string {
	names := make([]string, 0, len(c.m))
	for n := range c.m {
		names = append(names, n)
	}
	sortStrings(names)
	return names
}

// Merge adds every counter of other into c.
//
//em2:reference-only the table tests check counter merging with it
func (c *Counters) Merge(other *Counters) {
	//em2:unordered-ok: Inc is commutative integer accumulation; order cannot matter
	for n, v := range other.m {
		c.Inc(n, v)
	}
}

// String renders "name=value" pairs, one per line, sorted by name.
func (c *Counters) String() string {
	var b strings.Builder
	for _, n := range c.Names() {
		fmt.Fprintf(&b, "%s=%d\n", n, c.m[n])
	}
	return b.String()
}

func sortStrings(s []string) {
	// insertion sort: counter sets are small and this avoids pulling sort
	// into the hot path of callers that render once.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
