// Columnar (struct-of-arrays) tuple batches. A Batch holds the same
// information as a []Tuple and a PartialBatch the same information as a
// []Partial, but column-major: all keys contiguous, then all values.
// It is the live engine's exchange format and the shared table's input: a
// contiguous key column is what aggtable.Shared hashes and partitions by
// stripe before it takes a lock, and each column is one contiguous section
// for a codec. A private table's probe gains nothing from it
// (aggtable/batch.go), so scan sides fold row-major tuples where they lie.
//
// Batches are builders: Append until full, hand the batch to a fold or
// an encoder, Reset, reuse. The backing arrays are retained across
// Reset so a pooled batch reaches 0 allocs/op steady state.

package tuple

import "encoding/binary"

// Batch is a columnar batch of raw tuples. Column i of Keys and Vals
// together hold what Tuple i would: Keys[i] is the group-by key,
// Vals[i] the aggregated value. Invariant: len(Keys) == len(Vals).
type Batch struct {
	Keys []Key
	Vals []int64
}

// NewBatch returns a batch with room for capacity tuples before the
// first append reallocates.
func NewBatch(capacity int) *Batch {
	return &Batch{
		Keys: make([]Key, 0, capacity),
		Vals: make([]int64, 0, capacity),
	}
}

// Len reports the number of tuples in the batch.
//
//aggvet:noalloc
func (b *Batch) Len() int { return len(b.Keys) }

// Reset empties the batch, retaining capacity.
//
//aggvet:noalloc
func (b *Batch) Reset() {
	b.Keys = b.Keys[:0]
	b.Vals = b.Vals[:0]
}

// Append adds one tuple to the batch.
//
//aggvet:noalloc
func (b *Batch) Append(k Key, v int64) {
	b.Keys = append(b.Keys, k)
	b.Vals = append(b.Vals, v)
}

// AppendRows adds a row-major slice of tuples to the batch.
//
//aggvet:noalloc
func (b *Batch) AppendRows(ts []Tuple) {
	for i := range ts {
		b.Keys = append(b.Keys, ts[i].Key)
		b.Vals = append(b.Vals, ts[i].Val)
	}
}

// At materializes tuple i as a row.
//
//aggvet:noalloc
func (b *Batch) At(i int) Tuple { return Tuple{Key: b.Keys[i], Val: b.Vals[i]} }

// PartialBatch is a columnar batch of partial-aggregate tuples: one
// column per AggState field. All five columns always have equal length.
type PartialBatch struct {
	Keys   []Key
	Counts []int64
	Sums   []int64
	Mins   []int64
	Maxs   []int64
}

// NewPartialBatch returns a partial batch with room for capacity
// records before the first append reallocates.
func NewPartialBatch(capacity int) *PartialBatch {
	return &PartialBatch{
		Keys:   make([]Key, 0, capacity),
		Counts: make([]int64, 0, capacity),
		Sums:   make([]int64, 0, capacity),
		Mins:   make([]int64, 0, capacity),
		Maxs:   make([]int64, 0, capacity),
	}
}

// Len reports the number of partials in the batch.
//
//aggvet:noalloc
func (pb *PartialBatch) Len() int { return len(pb.Keys) }

// Reset empties the batch, retaining capacity.
//
//aggvet:noalloc
func (pb *PartialBatch) Reset() {
	pb.Keys = pb.Keys[:0]
	pb.Counts = pb.Counts[:0]
	pb.Sums = pb.Sums[:0]
	pb.Mins = pb.Mins[:0]
	pb.Maxs = pb.Maxs[:0]
}

// Append adds one partial to the batch.
//
//aggvet:noalloc
func (pb *PartialBatch) Append(p Partial) {
	pb.Keys = append(pb.Keys, p.Key)
	pb.Counts = append(pb.Counts, p.State.Count)
	pb.Sums = append(pb.Sums, p.State.Sum)
	pb.Mins = append(pb.Mins, p.State.Min)
	pb.Maxs = append(pb.Maxs, p.State.Max)
}

// At materializes partial i as a row.
//
//aggvet:noalloc
func (pb *PartialBatch) At(i int) Partial {
	return Partial{Key: pb.Keys[i], State: pb.StateAt(i)}
}

// StateAt materializes the AggState of partial i.
//
//aggvet:noalloc
func (pb *PartialBatch) StateAt(i int) AggState {
	return AggState{
		Count: pb.Counts[i],
		Sum:   pb.Sums[i],
		Min:   pb.Mins[i],
		Max:   pb.Maxs[i],
	}
}

// Columnar wire forms. A columnar raw section of n tuples is n*RawSize
// bytes: n contiguous little-endian keys followed by n contiguous
// values. A columnar partial section of n records is n*PartialSize
// bytes: keys, then counts, sums, mins, maxs — five contiguous
// sections. Record widths are identical to the row codecs,
// only the interleaving differs, so every frame-size bound derived for
// row frames holds verbatim for columnar frames.
//
// Like the row codecs, the encoders require dst to have room and the
// decoders require src to hold exactly the stated record count —
// callers validate lengths against attacker-controlled counts BEFORE
// calling (dist reads the body off the wire first, so a forged count
// can never force a decode past real bytes).

// EncodeRawCol writes the columnar wire form of ts into dst, which
// must hold len(ts)*RawSize bytes. Single pass over the rows: tuple i
// scatters into the key section at i*8 and the value section at
// (n+i)*8.
//
//aggvet:noalloc
func EncodeRawCol(dst []byte, ts []Tuple) {
	n := len(ts)
	for i := range ts {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(ts[i].Key))
		binary.LittleEndian.PutUint64(dst[(n+i)*8:], uint64(ts[i].Val))
	}
}

// DecodeRawCol appends the n tuples encoded columnar in src to dst and
// returns the extended slice. src must hold exactly n*RawSize bytes.
//
//aggvet:noalloc
func DecodeRawCol(dst []Tuple, src []byte, n int) []Tuple {
	for i := 0; i < n; i++ {
		dst = append(dst, Tuple{
			Key: Key(binary.LittleEndian.Uint64(src[i*8:])),
			Val: int64(binary.LittleEndian.Uint64(src[(n+i)*8:])),
		})
	}
	return dst
}

// EncodePartialCol writes the columnar wire form of ps into dst, which
// must hold len(ps)*PartialSize bytes. Single pass over the rows;
// record i scatters into the five column sections.
//
//aggvet:noalloc
func EncodePartialCol(dst []byte, ps []Partial) {
	n := len(ps)
	for i := range ps {
		binary.LittleEndian.PutUint64(dst[i*8:], uint64(ps[i].Key))
		binary.LittleEndian.PutUint64(dst[(n+i)*8:], uint64(ps[i].State.Count))
		binary.LittleEndian.PutUint64(dst[(2*n+i)*8:], uint64(ps[i].State.Sum))
		binary.LittleEndian.PutUint64(dst[(3*n+i)*8:], uint64(ps[i].State.Min))
		binary.LittleEndian.PutUint64(dst[(4*n+i)*8:], uint64(ps[i].State.Max))
	}
}

// DecodePartialCol appends the n partials encoded columnar in src to
// dst and returns the extended slice. src must hold exactly
// n*PartialSize bytes.
//
//aggvet:noalloc
func DecodePartialCol(dst []Partial, src []byte, n int) []Partial {
	for i := 0; i < n; i++ {
		dst = append(dst, Partial{
			Key: Key(binary.LittleEndian.Uint64(src[i*8:])),
			State: AggState{
				Count: int64(binary.LittleEndian.Uint64(src[(n+i)*8:])),
				Sum:   int64(binary.LittleEndian.Uint64(src[(2*n+i)*8:])),
				Min:   int64(binary.LittleEndian.Uint64(src[(3*n+i)*8:])),
				Max:   int64(binary.LittleEndian.Uint64(src[(4*n+i)*8:])),
			},
		})
	}
	return dst
}
