package aggtable

import (
	"encoding/binary"
	"testing"

	"parallelagg/internal/tuple"
)

// FuzzInsertMergeDrain interprets the input as an operation stream —
// 9-byte records of [op][8-byte key/val] — replayed against the table
// and the map oracle in lockstep. Any divergence (return values, drain
// contents, sortedness) is a crash. Seed corpus lives in
// testdata/fuzz/FuzzInsertMergeDrain and is extended automatically when
// the fuzzer finds new coverage.
func FuzzInsertMergeDrain(f *testing.F) {
	// Seeds: empty, one insert, update-after-insert, a drain mid-stream,
	// a reset, a bound-refusal sequence, and a Reserve between inserts.
	f.Add([]byte{})
	f.Add(seq(op(0, 7), op(0, 7), op(1, 7)))
	f.Add(seq(op(0, 1), op(0, 2), op(0, 3), op(2, 0), op(0, 1)))
	f.Add(seq(op(0, 10), op(1, 20), op(3, 0), op(0, 10)))
	f.Add(seq(op(0, 1), op(0, 2), op(0, 3), op(0, 4), op(0, 5)))
	f.Add(seq(op(0, 1), op(4, 900), op(0, 2), op(1, 1), op(4, 3)))

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return // bound the work per input
		}
		// A small bound derived from the stream exercises the refusal
		// path; streams of even length run unbounded.
		bound := 0
		if len(data)%2 == 1 {
			bound = 1 + len(data)%7
		}
		tab := New(bound)
		o := newOracle(bound)
		for len(data) >= 9 {
			code, arg := data[0], int64(binary.LittleEndian.Uint64(data[1:9]))
			data = data[9:]
			k := tuple.Key(arg % 1024) // narrow space: forces collisions
			switch code % 5 {
			case 0:
				if got, want := tab.UpdateRaw(tuple.Tuple{Key: k, Val: arg}), o.updateRaw(tuple.Tuple{Key: k, Val: arg}); got != want {
					t.Fatalf("UpdateRaw(%d) = %v, oracle %v", k, got, want)
				}
			case 1:
				p := tuple.Partial{Key: k, State: tuple.NewState(arg)}
				if got, want := tab.MergePartial(p), o.mergePartial(p); got != want {
					t.Fatalf("MergePartial(%d) = %v, oracle %v", k, got, want)
				}
			case 2:
				got, want := tab.Drain(), o.partials()
				if len(got) != len(want) {
					t.Fatalf("Drain: %d partials, oracle %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("Drain[%d] = %+v, oracle %+v", i, got[i], want[i])
					}
					if i > 0 && got[i].Key <= got[i-1].Key {
						t.Fatalf("Drain not strictly ascending at %d", i)
					}
				}
				o.m = make(map[tuple.Key]tuple.AggState)
			case 3:
				tab.Reset()
				o.m = make(map[tuple.Key]tuple.AggState)
			case 4:
				// Reserve changes the slot array only: the oracle has
				// nothing to do, the checks below see a lost entry.
				n := int(uint64(arg) % 4096)
				tab.Reserve(n)
				if tab.Slots() < slotsFor(tab.Len()+n) {
					t.Fatalf("Reserve(%d) on %d entries left %d slots", n, tab.Len(), tab.Slots())
				}
			}
			if tab.Len() != len(o.m) {
				t.Fatalf("Len = %d, oracle %d", tab.Len(), len(o.m))
			}
		}
		// Round-trip: whatever survived must drain identically.
		got, want := tab.Drain(), o.partials()
		if len(got) != len(want) {
			t.Fatalf("final Drain: %d partials, oracle %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("final Drain[%d] = %+v, oracle %+v", i, got[i], want[i])
			}
		}
	})
}

// op encodes one 9-byte fuzz record.
func op(code byte, arg uint64) []byte {
	var b [9]byte
	b[0] = code
	binary.LittleEndian.PutUint64(b[1:], arg)
	return b[:]
}

func seq(records ...[]byte) []byte {
	var out []byte
	for _, r := range records {
		out = append(out, r...)
	}
	return out
}
