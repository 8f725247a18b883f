package tuple

import (
	"testing"
	"testing/quick"
)

func TestBatchBuilder(t *testing.T) {
	b := NewBatch(4)
	if b.Len() != 0 {
		t.Fatalf("new batch Len = %d", b.Len())
	}
	b.Append(3, -7)
	b.AppendRows([]Tuple{{Key: 9, Val: 1}, {Key: 3, Val: 2}})
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if got := b.At(0); got != (Tuple{Key: 3, Val: -7}) {
		t.Errorf("At(0) = %v", got)
	}
	if got := b.At(2); got != (Tuple{Key: 3, Val: 2}) {
		t.Errorf("At(2) = %v", got)
	}
	b.Reset()
	if b.Len() != 0 || cap(b.Keys) < 3 {
		t.Errorf("Reset: Len = %d, cap = %d", b.Len(), cap(b.Keys))
	}
}

func TestPartialBatchBuilder(t *testing.T) {
	pb := NewPartialBatch(2)
	p1 := Partial{Key: 5, State: NewState(10)}
	p2 := Partial{Key: 6, State: NewState(-2)}
	p2.State.Update(4)
	pb.Append(p1)
	pb.Append(p2)
	if pb.Len() != 2 {
		t.Fatalf("Len = %d, want 2", pb.Len())
	}
	if pb.At(0) != p1 || pb.At(1) != p2 {
		t.Errorf("At = %v, %v, want %v, %v", pb.At(0), pb.At(1), p1, p2)
	}
	if pb.StateAt(1) != p2.State {
		t.Errorf("StateAt(1) = %v, want %v", pb.StateAt(1), p2.State)
	}
	pb.Reset()
	if pb.Len() != 0 {
		t.Errorf("Reset: Len = %d", pb.Len())
	}
}

// The columnar raw layout: all keys contiguous, then all values, record
// widths identical to the row codec.
func TestRawColLayout(t *testing.T) {
	ts := []Tuple{{Key: 1, Val: 100}, {Key: 2, Val: 200}, {Key: 3, Val: 300}}
	buf := make([]byte, len(ts)*RawSize)
	EncodeRawCol(buf, ts)
	// Key section first: a row decode of (key i, key i+1) must not see a
	// value until offset n*8.
	for i, tp := range ts {
		var rec [RawSize]byte
		copy(rec[:8], buf[i*8:])
		copy(rec[8:], buf[(len(ts)+i)*8:])
		if got := DecodeRaw(rec[:]); got != tp {
			t.Errorf("record %d reassembled as %v, want %v", i, got, tp)
		}
	}
	got := DecodeRawCol(nil, buf, len(ts))
	for i := range ts {
		if got[i] != ts[i] {
			t.Errorf("decode %d = %v, want %v", i, got[i], ts[i])
		}
	}
}

func TestPartialColRoundTrip(t *testing.T) {
	ps := []Partial{
		{Key: 7, State: NewState(3)},
		{Key: 8, State: AggState{Count: 2, Sum: -5, Min: -3, Max: -2}},
	}
	buf := make([]byte, len(ps)*PartialSize)
	EncodePartialCol(buf, ps)
	got := DecodePartialCol(nil, buf, len(ps))
	if len(got) != len(ps) {
		t.Fatalf("decoded %d records, want %d", len(got), len(ps))
	}
	for i := range ps {
		if got[i] != ps[i] {
			t.Errorf("record %d = %v, want %v", i, got[i], ps[i])
		}
	}
}

// DecodeRawCol appends — existing records must survive.
func TestDecodeRawColAppends(t *testing.T) {
	ts := []Tuple{{Key: 4, Val: 4}}
	buf := make([]byte, RawSize)
	EncodeRawCol(buf, ts)
	prior := Tuple{Key: 1, Val: 1}
	got := DecodeRawCol([]Tuple{prior}, buf, 1)
	if len(got) != 2 || got[0] != prior || got[1] != ts[0] {
		t.Errorf("append decode = %v", got)
	}
}

// Property: any batch survives the columnar raw round trip.
func TestRawColRoundTripProperty(t *testing.T) {
	f := func(keys []uint64, vals []int64) bool {
		n := min(len(keys), len(vals))
		ts := make([]Tuple, n)
		for i := 0; i < n; i++ {
			ts[i] = Tuple{Key: Key(keys[i]), Val: vals[i]}
		}
		buf := make([]byte, n*RawSize)
		EncodeRawCol(buf, ts)
		got := DecodeRawCol(nil, buf, n)
		for i := range ts {
			if got[i] != ts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
