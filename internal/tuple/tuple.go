// Package tuple defines the data model that flows through the parallel
// aggregation algorithms: raw relation tuples, projected tuples (group-by
// key + aggregated value), and partial-aggregate tuples produced by a local
// aggregation phase. It also implements the aggregate state machine shared
// by COUNT, SUM, AVG, MIN and MAX, and the hash/bucket/destination
// functions used for partitioning.
package tuple

import (
	"encoding/binary"
	"fmt"
)

// Key is a group-by key. The algorithms only ever hash and compare keys, so
// a 64-bit value is fully general: wider textual keys are assumed to have
// been reduced to 64 bits by an injective encoding or a prior hash.
type Key uint64

// Tuple is a projected relation tuple: the group-by attribute and the value
// being aggregated. Its stored (on-disk) form is padded to the relation's
// tuple width; only these two fields are relevant to aggregation (the
// paper's projectivity p).
type Tuple struct {
	Key Key
	Val int64
}

// AggState is the running state of COUNT, SUM, MIN and MAX over one
// group; AVG is Sum/Count. The zero value is NOT a valid state; build
// states with NewState.
//
// Count and Sum wrap as two's complement on overflow. Wrapping addition
// is associative and commutative mod 2^64, so every fold order and every
// split into partitions gives the same Sum; a checked add would fail or
// not depending on how the input was split.
type AggState struct {
	Count int64
	Sum   int64
	Min   int64
	Max   int64
}

// NewState returns the aggregate state of a group containing exactly one
// raw value.
//
//aggvet:noalloc
func NewState(v int64) AggState {
	return AggState{Count: 1, Sum: v, Min: v, Max: v}
}

// Update folds one more raw value into the state.
//
//aggvet:noalloc
func (s *AggState) Update(v int64) {
	s.Count++
	s.Sum += v
	if v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
}

// Merge folds another partial state for the same group into s. Merge is
// associative and commutative, which is what makes two-phase aggregation
// correct.
//
//aggvet:noalloc
func (s *AggState) Merge(o AggState) {
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Min < s.Min {
		s.Min = o.Min
	}
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Avg returns the SQL AVG value of the state. It panics on an empty state.
func (s AggState) Avg() float64 {
	if s.Count == 0 {
		panic("tuple: Avg of empty AggState")
	}
	return float64(s.Sum) / float64(s.Count)
}

// String renders the state for debugging.
func (s AggState) String() string {
	return fmt.Sprintf("{count=%d sum=%d min=%d max=%d}", s.Count, s.Sum, s.Min, s.Max)
}

// Partial is a partial-aggregate tuple: the output of a local aggregation
// phase, sent to the node responsible for the group in the merge phase.
type Partial struct {
	Key   Key
	State AggState
}

// hash64 is the splitmix64 finalizer: a fast, high-quality 64-bit mixer.
// The algorithms derive both the destination node and the overflow bucket
// from it, using disjoint bit ranges so bucket choice is independent of
// node choice.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Hash returns a well-mixed 64-bit hash of the key.
//
//aggvet:noalloc
func (k Key) Hash() uint64 { return hash64(uint64(k)) }

// Dest returns the node (0..n-1) responsible for this key under hash
// partitioning on the GROUP BY attribute.
//
//aggvet:noalloc
func (k Key) Dest(n int) int {
	if n <= 0 {
		panic("tuple: Dest with non-positive node count")
	}
	return int(k.Hash() % uint64(n))
}

// BucketAt returns an overflow bucket in [0,n) drawn from a hash family
// indexed by depth: recursive overflow partitioning uses depth 0, 1, 2, …
// so that keys colliding at one level separate at the next. All depths are
// independent of Dest.
func (k Key) BucketAt(n, depth int) int {
	if n <= 0 {
		panic("tuple: BucketAt with non-positive bucket count")
	}
	h := hash64(k.Hash() + uint64(depth+1)*0x9e3779b97f4a7c15)
	return int(h % uint64(n))
}

// Encoded widths of the two wire/disk record formats.
const (
	RawSize     = 16 // key + value
	PartialSize = 40 // key + count + sum + min + max
)

// EncodeRaw writes the 16-byte wire form of t into b, which must have room.
//
//aggvet:noalloc
func EncodeRaw(b []byte, t Tuple) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(t.Key))
	binary.LittleEndian.PutUint64(b[8:16], uint64(t.Val))
}

// DecodeRaw reads the 16-byte wire form from b.
//
//aggvet:noalloc
func DecodeRaw(b []byte) Tuple {
	return Tuple{
		Key: Key(binary.LittleEndian.Uint64(b[0:8])),
		Val: int64(binary.LittleEndian.Uint64(b[8:16])),
	}
}

// EncodePartial writes the 40-byte wire form of p into b.
//
//aggvet:noalloc
func EncodePartial(b []byte, p Partial) {
	binary.LittleEndian.PutUint64(b[0:8], uint64(p.Key))
	binary.LittleEndian.PutUint64(b[8:16], uint64(p.State.Count))
	binary.LittleEndian.PutUint64(b[16:24], uint64(p.State.Sum))
	binary.LittleEndian.PutUint64(b[24:32], uint64(p.State.Min))
	binary.LittleEndian.PutUint64(b[32:40], uint64(p.State.Max))
}

// DecodePartial reads the 40-byte wire form from b.
//
//aggvet:noalloc
func DecodePartial(b []byte) Partial {
	return Partial{
		Key: Key(binary.LittleEndian.Uint64(b[0:8])),
		State: AggState{
			Count: int64(binary.LittleEndian.Uint64(b[8:16])),
			Sum:   int64(binary.LittleEndian.Uint64(b[16:24])),
			Min:   int64(binary.LittleEndian.Uint64(b[24:32])),
			Max:   int64(binary.LittleEndian.Uint64(b[32:40])),
		},
	}
}
