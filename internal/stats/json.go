package stats

import "encoding/json"

// tableJSON is the wire form of a Table: title, headers, and the formatted
// row cells. It contains no timing or machine-local data, so marshalling a
// deterministic table yields deterministic bytes.
type tableJSON struct {
	Title   string     `json:"title"`
	Headers []string   `json:"headers"`
	Rows    [][]string `json:"rows"`
}

// MarshalJSON renders the table as {"title": ..., "headers": [...],
// "rows": [[...], ...]}.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{Title: t.title, Headers: t.headers, Rows: t.rows})
}

// UnmarshalJSON restores a table marshalled by MarshalJSON.
//
//em2:reference-only the sweep tests round-trip exported tables with it
func (t *Table) UnmarshalJSON(data []byte) error {
	var tj tableJSON
	if err := json.Unmarshal(data, &tj); err != nil {
		return err
	}
	t.title = tj.Title
	t.headers = tj.Headers
	t.rows = tj.Rows
	return nil
}
