package kernel

import (
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
