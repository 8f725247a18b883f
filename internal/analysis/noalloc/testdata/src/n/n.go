// Package n exercises noalloc: an //aggvet:noalloc function and its
// same-goroutine call closure must be free of allocating constructs.
// Whitelisted cross-package callees (tuple codecs, binary endian ops,
// math/bits, sync/atomic, bare mutex ops, sync.Pool's Get and Put of a
// pointer) and the self-append idiom
// pass; everything else is reported, havoc included.
package n

import (
	"encoding/binary"
	"fmt"
	"internal/tuple"
	"math/bits"
	"sync"
	"sync/atomic"
)

type counter struct {
	mu sync.Mutex
	n  int64
}

type point struct{ x, y int }

// --- clean idioms: no diagnostics ---

//aggvet:noalloc
func sum(xs []int) int {
	total := 0
	for _, x := range xs {
		total = add(total, x)
	}
	return total
}

func add(a, b int) int { return a + b }

//aggvet:noalloc
func encode(buf []byte, k tuple.Key, v float64) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(bits.OnesCount64(k.Hash())))
	buf = append(buf, hdr[:4]...)
	n := tuple.EncodeRaw(buf, k, v)
	return buf[:len(buf)-16+n]
}

//aggvet:noalloc
func bumpLocked(c *counter) {
	c.mu.Lock()
	atomic.AddInt64(&c.n, 1)
	c.mu.Unlock()
}

//aggvet:noalloc
func guardIndex(i, n int) {
	if i >= n {
		panic("index out of range")
	}
}

//aggvet:noalloc
func structVal(a, b int) int {
	pt := point{a, b}
	return pt.x + pt.y
}

//aggvet:noalloc
func pointerArg(p *point) {
	sink(p)  // pointer-shaped: fits the interface word, no box
	sink(nil)
}

func sink(vs ...any) {}

// A sync.Pool with no New recycles pointers: Get hands back what a Put
// left (or nil), and a pointer fits the interface word Put takes.
var slabs sync.Pool

//aggvet:noalloc
func recycle(p *point) *point {
	q, _ := slabs.Get().(*point)
	slabs.Put(p)
	return q
}

// spawned is only ever launched on its own goroutine: its body is
// outside the same-goroutine closure, so this make is NOT reported —
// the go statement in goHot is.
func spawned() {
	_ = make([]int, 8)
}

// --- violations ---

//aggvet:noalloc
func makeHot(n int) []int {
	return make([]int, n) // want `make allocates in //aggvet:noalloc function makeHot`
}

//aggvet:noalloc
func newHot() *point {
	return new(point) // want `new allocates in //aggvet:noalloc function newHot`
}

//aggvet:noalloc
func growAppend(xs []int) []int {
	ys := append(xs, 1) // want `append may grow a fresh backing array`
	return ys
}

//aggvet:noalloc
func mapWrite(m map[string]int, k string) {
	m[k] = 1 // want `map assignment may grow the map`
}

//aggvet:noalloc
func mapIncr(m map[string]int, k string) {
	m[k]++ // want `map assignment may grow the map`
}

//aggvet:noalloc
func concat(a, b string) string {
	return a + b // want `string concatenation allocates`
}

//aggvet:noalloc
func concatAssign(s string) string {
	s += "!" // want `string concatenation allocates`
	return s
}

//aggvet:noalloc
func toString(bs []byte) string {
	return string(bs) // want `conversion to string allocates`
}

//aggvet:noalloc
func toBytes(s string) []byte {
	return []byte(s) // want `string to \[\]byte conversion allocates`
}

//aggvet:noalloc
func closureHot(n int) int {
	f := func() int { return n } // want `closure creation allocates`
	return f()
}

//aggvet:noalloc
func goHot() {
	go spawned() // want `go statement allocates a new goroutine`
}

//aggvet:noalloc
func sliceLit() []int {
	return []int{1, 2} // want `slice composite literal allocates`
}

//aggvet:noalloc
func mapLit() map[string]int {
	return map[string]int{} // want `map composite literal allocates`
}

//aggvet:noalloc
func ptrLit(a, b int) *point {
	return &point{a, b} // want `&composite literal allocates`
}

//aggvet:noalloc
func fmtHot(k tuple.Key) string {
	return fmt.Sprintf("key=%d", k.G) // want `fmt\.Sprintf formats via reflection and allocates`
}

//aggvet:noalloc
func unknownFn(f func() int) int {
	return f() // want `call to f cannot be proven allocation-free`
}

//aggvet:noalloc
func unknownCrossPkg(k tuple.Key) string {
	return tuple.Format(k) // want `call to tuple\.Format cannot be proven allocation-free`
}

//aggvet:noalloc
func boxArg(n int) {
	sink(n) // want `interface conversion of int boxes on the heap`
}

//aggvet:noalloc
func boxReturn(n int) any {
	return n // want `interface conversion of int boxes on the heap`
}

//aggvet:noalloc
func poolValue(pt point) {
	slabs.Put(pt) // want `interface conversion of n.point boxes on the heap`
}

//aggvet:noalloc
func boxAssign(n int) {
	var v any
	v = n // want `interface conversion of int boxes on the heap`
	_ = v
}

// --- the contract follows calls ---

//aggvet:noalloc
func driver(xs []int) []int {
	return helperAlloc(xs)
}

func helperAlloc(xs []int) []int {
	out := make([]int, len(xs)) // want `make allocates in helperAlloc, reachable from //aggvet:noalloc function driver`
	copy(out, xs)
	return out
}

// --- escape hatch ---

//aggvet:noalloc
func scratchGrow(buf []byte, need int) []byte {
	if cap(buf) >= need {
		return buf[:need]
	}
	return make([]byte, need) //aggvet:allow noalloc -- growth reallocation; amortizes to zero in the steady state the runtime pins measure
}
