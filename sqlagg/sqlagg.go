// Package sqlagg re-exports the SQL-flavoured query layer: multi-column
// tables, GROUP BY over several columns, COUNT/SUM/AVG/MIN/MAX plus
// COUNT(DISTINCT)/SUM(DISTINCT) with SQL NULL semantics, WHERE pushed
// below the aggregation, HAVING applied after it, and ORDER BY/LIMIT for
// top-k results — executed on the live parallel engine. Group-by cells
// reach the engine as dense integer keys built from per-column code
// dictionaries, with no per-row string or allocation, by one shard of the
// rows per engine worker (DESIGN.md §15). Query.Where is therefore called
// from up to Workers goroutines at once: keep it a pure predicate.
//
//	res, err := sqlagg.Execute(table, sqlagg.Query{
//	    GroupBy: []string{"returnflag", "linestatus"},
//	    Aggs:    []sqlagg.Agg{{Func: sqlagg.Sum, Col: "quantity"}},
//	}, live.Config{}, live.AdaptiveTwoPhase)
package sqlagg

import (
	"parallelagg/internal/live"
	"parallelagg/internal/query"
)

// Column types.
type Type = query.Type

// Supported column types.
const (
	Int64  = query.Int64
	String = query.String
)

// Schema building blocks.
type (
	Column = query.Column
	Schema = query.Schema
	Value  = query.Value
	Row    = query.Row
	Table  = query.Table
)

// NullValue is the SQL NULL cell.
var NullValue = query.NullValue

// IntVal builds a non-null integer cell.
func IntVal(v int64) Value { return query.IntVal(v) }

// StrVal builds a non-null string cell.
func StrVal(v string) Value { return query.StrVal(v) }

// AggFunc is a SQL aggregate function.
type AggFunc = query.AggFunc

// The aggregate functions.
const (
	Count     = query.Count
	CountStar = query.CountStar
	Sum       = query.Sum
	Avg       = query.Avg
	Min       = query.Min
	Max       = query.Max
)

// Query building blocks.
type (
	Agg    = query.Agg
	Query  = query.Query
	Result = query.Result
)

// Execute runs the query on the table using the live parallel engine.
func Execute(t *Table, q Query, cfg live.Config, alg live.Algorithm) (*Result, error) {
	return query.Execute(t, q, cfg, alg)
}
