package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewStateSingleValue(t *testing.T) {
	s := NewState(42)
	if s.Count != 1 || s.Sum != 42 || s.Min != 42 || s.Max != 42 {
		t.Errorf("NewState(42) = %v", s)
	}
	if s.Avg() != 42 {
		t.Errorf("Avg = %v, want 42", s.Avg())
	}
}

func TestUpdate(t *testing.T) {
	s := NewState(10)
	s.Update(-3)
	s.Update(7)
	if s.Count != 3 {
		t.Errorf("Count = %d, want 3", s.Count)
	}
	if s.Sum != 14 {
		t.Errorf("Sum = %d, want 14", s.Sum)
	}
	if s.Min != -3 {
		t.Errorf("Min = %d, want -3", s.Min)
	}
	if s.Max != 10 {
		t.Errorf("Max = %d, want 10", s.Max)
	}
	if got, want := s.Avg(), 14.0/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("Avg = %v, want %v", got, want)
	}
}

func TestAvgEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Avg of empty state did not panic")
		}
	}()
	var s AggState
	s.Avg()
}

// fold aggregates a slice of values sequentially — the reference semantics.
func fold(vs []int64) AggState {
	s := NewState(vs[0])
	for _, v := range vs[1:] {
		s.Update(v)
	}
	return s
}

// Property: merging the states of any two partitions of a value list equals
// folding the whole list, field by field, over the full int64 range. This is
// the correctness core of every two-phase algorithm in the paper. Sums that
// leave the range wrap as two's complement, and wrapping addition is
// associative and commutative, so the identity holds where Sum overflows too.
func TestMergeEqualsFoldProperty(t *testing.T) {
	f := func(a, b []int64) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		left := fold(a)
		left.Merge(fold(b))
		return left == fold(append(append([]int64{}, a...), b...))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Two values whose sum crosses MaxInt64 wrap to the same Sum either way.
	big := []int64{math.MaxInt64 - 1, 3}
	s := fold(big[:1])
	s.Merge(fold(big[1:]))
	if want := int64(math.MinInt64 + 1); s.Sum != want || s != fold(big) {
		t.Errorf("wrapped merge = %v, fold = %v, want Sum %d", s, fold(big), want)
	}
}

// Property: Merge is commutative.
func TestMergeCommutativeProperty(t *testing.T) {
	f := func(a, b int64, ca, cb uint8) bool {
		sa, sb := NewState(a), NewState(b)
		for i := uint8(0); i < ca; i++ {
			sa.Update(a + int64(i))
		}
		for i := uint8(0); i < cb; i++ {
			sb.Update(b - int64(i))
		}
		x, y := sa, sb
		x.Merge(sb)
		y2 := sb
		y2.Merge(sa)
		_ = y
		return x == y2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: Merge is associative.
func TestMergeAssociativeProperty(t *testing.T) {
	f := func(a, b, c int64) bool {
		sa, sb, sc := NewState(a), NewState(b), NewState(c)
		// (a⊕b)⊕c
		l := sa
		l.Merge(sb)
		l.Merge(sc)
		// a⊕(b⊕c)
		r2 := sb
		r2.Merge(sc)
		r := sa
		r.Merge(r2)
		return l == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDestInRangeAndStable(t *testing.T) {
	for n := 1; n <= 64; n *= 2 {
		for k := Key(0); k < 1000; k++ {
			d := k.Dest(n)
			if d < 0 || d >= n {
				t.Fatalf("Dest(%d) of key %d = %d out of range", n, k, d)
			}
			if d != k.Dest(n) {
				t.Fatalf("Dest not deterministic for key %d", k)
			}
		}
	}
}

func TestDestSpreadsKeys(t *testing.T) {
	const n, keys = 8, 8000
	counts := make([]int, n)
	for k := Key(0); k < keys; k++ {
		counts[k.Dest(n)]++
	}
	for i, c := range counts {
		if c < keys/n/2 || c > keys/n*2 {
			t.Errorf("node %d got %d of %d keys; hash badly skewed", i, c, keys)
		}
	}
}

func TestDestZeroNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Dest(0) did not panic")
		}
	}()
	Key(1).Dest(0)
}

func TestRawRoundTrip(t *testing.T) {
	var b [RawSize]byte
	in := Tuple{Key: 0xdeadbeefcafe, Val: -12345}
	EncodeRaw(b[:], in)
	if got := DecodeRaw(b[:]); got != in {
		t.Errorf("round trip = %v, want %v", got, in)
	}
}

func TestPartialRoundTrip(t *testing.T) {
	var b [PartialSize]byte
	in := Partial{Key: 7, State: AggState{Count: 3, Sum: -9, Min: -100, Max: 42}}
	EncodePartial(b[:], in)
	if got := DecodePartial(b[:]); got != in {
		t.Errorf("round trip = %v, want %v", got, in)
	}
}

// Property: encode/decode are inverses for arbitrary values.
func TestRawRoundTripProperty(t *testing.T) {
	f := func(k uint64, v int64) bool {
		var b [RawSize]byte
		in := Tuple{Key: Key(k), Val: v}
		EncodeRaw(b[:], in)
		return DecodeRaw(b[:]) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPartialRoundTripProperty(t *testing.T) {
	f := func(k uint64, c, s, mn, mx int64) bool {
		var b [PartialSize]byte
		in := Partial{Key: Key(k), State: AggState{Count: c, Sum: s, Min: mn, Max: mx}}
		EncodePartial(b[:], in)
		return DecodePartial(b[:]) == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzRawRoundTrip: decoding an encoding is the identity for arbitrary
// key/value pairs.
func FuzzRawRoundTrip(f *testing.F) {
	f.Add(uint64(0), int64(0))
	f.Add(uint64(1<<63), int64(-1))
	f.Fuzz(func(t *testing.T, k uint64, v int64) {
		var b [RawSize]byte
		in := Tuple{Key: Key(k), Val: v}
		EncodeRaw(b[:], in)
		if got := DecodeRaw(b[:]); got != in {
			t.Fatalf("round trip = %v, want %v", got, in)
		}
	})
}

// FuzzPartialRoundTrip covers the 40-byte partial record.
func FuzzPartialRoundTrip(f *testing.F) {
	f.Add(uint64(7), int64(1), int64(2), int64(3), int64(4))
	f.Add(uint64(1<<63), int64(math.MaxInt64), int64(math.MinInt64), int64(-1), int64(0))
	f.Fuzz(func(t *testing.T, k uint64, c, s, mn, mx int64) {
		var b [PartialSize]byte
		in := Partial{Key: Key(k), State: AggState{Count: c, Sum: s, Min: mn, Max: mx}}
		EncodePartial(b[:], in)
		if got := DecodePartial(b[:]); got != in {
			t.Fatalf("round trip mismatch")
		}
	})
}

func TestBucketPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BucketAt(0) did not panic")
		}
	}()
	Key(1).BucketAt(0, 1)
}

func TestBucketAtDepthsDiffer(t *testing.T) {
	// Two keys colliding at one depth must separate at some later depth.
	const nb = 2
	k1, k2 := Key(3), Key(7)
	separated := false
	for d := 0; d < 64; d++ {
		if k1.BucketAt(nb, d) != k2.BucketAt(nb, d) {
			separated = true
			break
		}
	}
	if !separated {
		t.Error("keys never separate across 64 depths")
	}
}

func TestAggStateString(t *testing.T) {
	s := NewState(5)
	if got := s.String(); got != "{count=1 sum=5 min=5 max=5}" {
		t.Errorf("String = %q", got)
	}
}
