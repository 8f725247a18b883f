package aggtable

import (
	"fmt"
	"math/rand"
	"testing"

	"parallelagg/internal/tuple"
)

// BenchmarkFold times the fold kernel through its three raw-tuple entry
// points on one seeded input: 2^20 uniform rows over 1,024 groups (the scan
// side's shape on live_few: the table sits in L1/L2 and never grows after
// the first chunk), 16,384 (a full scan-side table) and 131,072 (the merge
// side's: growth and cache misses dominate). Every iteration folds the whole
// input into a fresh unbounded table in 4,096-row chunks, the live engine's
// default, so growth is inside the figure as it is inside a query; "batch"
// folds columnar copies built outside the timer. ns/row is the number to read.
func BenchmarkFold(b *testing.B) {
	const rows, chunk = 1 << 20, 4096
	for _, groups := range []int{1024, 16384, 131072} {
		rng := rand.New(rand.NewSource(int64(groups)))
		part := make([]tuple.Tuple, rows)
		seen := make(map[tuple.Key]struct{}, groups)
		for i := range part {
			part[i] = tuple.Tuple{Key: tuple.Key(rng.Intn(groups)), Val: int64(rng.Intn(2001) - 1000)}
			seen[part[i].Key] = struct{}{}
		}
		var cols []*tuple.Batch
		for off := 0; off < rows; off += chunk {
			bt := tuple.NewBatch(chunk)
			bt.AppendRows(part[off : off+chunk])
			cols = append(cols, bt)
		}
		refused := make([]int, 0, chunk)
		kernels := []struct {
			name string
			fold func(*Table)
		}{
			{"raw", func(t *Table) {
				for _, tp := range part {
					t.UpdateRaw(tp)
				}
			}},
			{"batch", func(t *Table) {
				for _, bt := range cols {
					refused = t.UpdateBatch(bt, refused[:0])
				}
			}},
			{"rows", func(t *Table) {
				for off := 0; off < rows; off += chunk {
					refused = t.UpdateRows(part[off:off+chunk], refused[:0])
				}
			}},
		}
		for _, k := range kernels {
			b.Run(fmt.Sprintf("%s/groups=%d", k.name, groups), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					t := New(0)
					k.fold(t)
					if t.Len() != len(seen) {
						b.Fatalf("folded %d groups, want %d", t.Len(), len(seen))
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/rows, "ns/row")
			})
		}
	}
}
