package query

import (
	"strings"
	"testing"

	"parallelagg/internal/live"
)

// fuzzCells is FuzzKeyEncoding's alphabet: the key rule's edge cells —
// NULL with and without a Str riding along, StrVal("") and IntVal(0) (one
// key, also with an empty Str on a backing that is not nil), a Str
// carrying an Int — and strings that share their bytes or do not: "x" at
// three data pointers, one of them shared with "xy".
var fuzzCells = func() []Value {
	xyx := strings.Clone("xyx")
	return []Value{NullValue, {Null: true, Str: "x", Int: 3}, StrVal(""), IntVal(0), {Str: xyx[1:1]}, IntVal(1),
		IntVal(-1), {Str: "x", Int: 5}, StrVal(xyx[:1]), StrVal(xyx[2:]), StrVal(strings.Clone("x")), StrVal(xyx[:2]),
		StrVal("y"), StrVal("1")}
}()

// FuzzKeyEncoding reads a group-by width (1–4 columns), a worker count and
// then rows of cells drawn from fuzzCells, and wants Execute's groups to be
// the tagged-string oracle's.
func FuzzKeyEncoding(f *testing.F) {
	f.Add([]byte{1, 1, 0, 3, 2, 3, 4, 8, 9, 10, 11, 8})
	f.Add([]byte{0, 2, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 0, 4, 8, 10})
	f.Add([]byte{2, 0, 8, 9, 10, 9, 10, 8, 10, 8, 9, 2, 3, 4, 4, 3, 2, 0, 1, 0})
	f.Add([]byte{3, 1, 13, 5, 12, 7, 5, 13, 7, 12, 0, 1, 2, 3, 3, 2, 1, 0, 11, 11, 8, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		k, workers := 1+int(data[0]%4), 1+int(data[1]%3)
		tab := &Table{Schema: Schema{Cols: []Column{{Name: "a", Type: String}, {Name: "b", Type: String},
			{Name: "c", Type: String}, {Name: "d", Type: String}}[:k]}}
		for data = data[2:]; len(data) >= k; data = data[k:] {
			r := make(Row, k)
			for c := range r {
				r[c] = fuzzCells[int(data[c])%len(fuzzCells)]
			}
			tab.Rows = append(tab.Rows, r)
		}
		oracleCheck(t, "fuzz", tab, k, live.Config{Workers: workers, TableEntries: 4})
	})
}
