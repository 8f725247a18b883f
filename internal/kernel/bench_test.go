package kernel

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"parallelagg/internal/tuple"
)

// sink is an Exchange that drops what it is shipped and hands every buffer
// back emptied, the way dist's socket peers do, so a steady-state scan
// allocates nothing of its own.
type sink struct{ batch int }

func (s sink) Raw(_ int, b []tuple.Tuple) ([]tuple.Tuple, error) {
	if b == nil {
		return make([]tuple.Tuple, 0, s.batch), nil
	}
	return b[:0], nil
}

func (s sink) Partials(_ int, b []tuple.Partial) ([]tuple.Partial, error) {
	if b == nil {
		return make([]tuple.Partial, 0, s.batch), nil
	}
	return b[:0], nil
}

func (sink) Reserve(int, int) error { return nil }
func (sink) EndPhase() error        { return nil }

// scanShapes are the two hot paths of the loop: a chunked fold into a table
// that holds every group (live_few's regime), and routing (a switched
// scan's, or Rep's).
var scanShapes = []struct {
	name string
	alg  Algorithm
}{{"fold", AdaptiveTwoPhase}, {"route", Repartitioning}}

func scanInput(rows, groups int) []tuple.Tuple {
	part := make([]tuple.Tuple, rows)
	for i := range part {
		part[i] = tuple.Tuple{Key: tuple.Key(i * 7 % groups), Val: int64(i)}
	}
	return part
}

// Past its first chunk a scan's fold and route paths allocate nothing: the
// chunk fold's refusal list and the per-destination buffers are reused.
func TestAllocsPinScan(t *testing.T) {
	part := scanInput(1<<14, 1024)
	for _, sh := range scanShapes {
		k := Scan{Alg: sh.alg, Bound: 4096, Batch: 1024,
			Dests: 4, Rows: len(part), Fallback: new(atomic.Bool), Ex: sink{1024}}
		k.Begin()
		k.Scan(part) // warm-up: the table's slots and every destination's buffer
		if allocs := testing.AllocsPerRun(20, func() { k.Scan(part) }); allocs != 0 {
			t.Errorf("%s: a steady-state Scan allocates %.1f times, want 0", sh.name, allocs)
		}
	}
}

// BenchmarkKernelScan times the loop alone, over an exchange that costs
// nothing: ns/row for the chunked fold (1,024 groups, never full) and for
// routing to four destinations.
func BenchmarkKernelScan(b *testing.B) {
	part := scanInput(1<<18, 1024)
	for _, sh := range scanShapes {
		b.Run(sh.name, func(b *testing.B) {
			k := Scan{Alg: sh.alg, Bound: 16384, Batch: 4096,
				Dests: 4, Rows: len(part), Fallback: new(atomic.Bool), Ex: sink{4096}}
			k.Begin()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Scan(part)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(part)), "ns/row")
		})
	}
}

// ownerInput is what one of two owners receives: rows raw tuples over
// groups keys of its range (Key.Dest(2) == 0), drawn uniformly. It returns
// how many of the keys were drawn.
func ownerInput(rows, groups int, seed int64) ([]tuple.Tuple, int) {
	rng := rand.New(rand.NewSource(seed))
	keys := make([]tuple.Key, 0, groups)
	for k := tuple.Key(0); len(keys) < groups; k++ {
		if k.Dest(2) == 0 {
			keys = append(keys, k)
		}
	}
	in, drawn := make([]tuple.Tuple, rows), make(map[tuple.Key]bool, groups)
	for i := range in {
		in[i] = tuple.Tuple{Key: keys[rng.Intn(groups)], Val: int64(i)}
		drawn[in[i].Key] = true
	}
	return in, len(drawn)
}

// BenchmarkMergeRaw folds 2^20 owner-shaped raw tuples, in batches of
// 4,096, through a Merge reserved for their groups at 2^13–2^18 groups:
// the owner fold's ns/row by table size, the reservation and Table()
// included.
func BenchmarkMergeRaw(b *testing.B) {
	const rows, batch = 1 << 20, 4096
	for lg := 13; lg <= 18; lg++ {
		groups := 1 << lg
		in, drawn := ownerInput(rows, groups, int64(lg))
		b.Run(fmt.Sprintf("groups=2^%d", lg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m := NewMerge()
				m.Reserve(groups)
				for lo := 0; lo < rows; lo += batch {
					m.Raw(in[lo : lo+batch])
				}
				if m.Table().Len() != drawn {
					b.Fatalf("%d groups, want %d", m.Table().Len(), drawn)
				}
				m.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
		})
	}
}
