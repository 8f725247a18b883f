// Fixtures for maporder: flagged and clean control-flow paths from map
// iteration to observable sinks. Import path parallelagg/internal/core
// puts the package in the analyzer's scope.
package core

import "sort"

type Key struct{ G int }

// --- direct sinks inside the loop body ---

func sendKeys(m map[Key]int64, ch chan Key) {
	for k := range m { // want `maporder: map iteration order reaches a channel send`
		ch <- k
	}
}

type emitter struct{}

func (emitter) Emit(k Key) {}

func emitVals(m map[Key]int64, e emitter) {
	for k := range m { // want `maporder: map iteration order reaches an emitting call to Emit`
		e.Emit(k)
	}
}

func anyKey(m map[Key]int64) (Key, bool) {
	for k := range m { // want `maporder: map iteration order reaches a return`
		return k, true
	}
	return Key{}, false
}

func derivedLocal(m map[Key]int64, ch chan int) {
	for k := range m { // want `maporder: map iteration order reaches a channel send`
		g := k.G
		ch <- g
	}
}

// Nothing loop-dependent leaves the loop: counting is order-invariant.
func countOnly(m map[Key]int64, ch chan int) {
	n := 0
	for range m {
		n++
	}
	ch <- n
}

// --- escaping appends, the flow-sensitive half ---

func keysUnsorted(m map[Key]int64) []Key {
	out := make([]Key, 0, len(m))
	for k := range m { // want `maporder: map iteration order reaches a return of out`
		out = append(out, k)
	}
	return out
}

func keysSorted(m map[Key]int64) []Key {
	out := make([]Key, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].G < out[j].G })
	return out
}

func sortedOneBranchOnly(m map[Key]int64, c bool) []Key {
	var out []Key
	for k := range m { // want `maporder: map iteration order reaches a return of out`
		out = append(out, k)
	}
	if c {
		sort.Slice(out, func(i, j int) bool { return out[i].G < out[j].G })
	}
	return out
}

func sortedOnAllBranches(m map[Key]int64, c bool) []Key {
	var out []Key
	for k := range m {
		out = append(out, k)
	}
	if c {
		sort.Slice(out, func(i, j int) bool { return out[i].G < out[j].G })
	} else {
		sort.SliceStable(out, func(i, j int) bool { return out[i].G < out[j].G })
	}
	return out
}

func ship(p []Key) {}

func escapeBeforeSort(m map[Key]int64) {
	var out []Key
	for k := range m { // want `maporder: map iteration order reaches a call to ship`
		out = append(out, k)
	}
	ship(out)
	sort.Slice(out, func(i, j int) bool { return out[i].G < out[j].G })
}

// The bucket idiom: every bucket is sorted by the second loop, and an
// empty out is trivially sorted, so the zero-iteration path is clean
// too.
func buckets(m map[Key]int64, n int) [][]Key {
	out := make([][]Key, n)
	for k := range m {
		b := k.G % n
		out[b] = append(out[b], k)
	}
	for b := range out {
		sort.Slice(out[b], func(i, j int) bool { return out[b][i].G < out[b][j].G })
	}
	return out
}

// Alias propagation: the unsorted data escapes under a new name.
func aliasEscape(m map[Key]int64) []Key {
	var out []Key
	for k := range m { // want `maporder: map iteration order reaches a return of q`
		out = append(out, k)
	}
	q := out
	return q
}

// --- suppression ---

func allowedSend(m map[Key]int64, ch chan Key) {
	//aggvet:allow maporder -- ordering tolerated: consumer resorts
	for k := range m {
		ch <- k
	}
}
