// Package workload is outside maporder's scope: the same patterns that
// are flagged in internal/core must produce no diagnostics here.
package workload

func sendKeys(m map[int]int64, ch chan int) {
	for k := range m {
		ch <- k
	}
}

func keysUnsorted(m map[int]int64) []int {
	var out []int
	for k := range m {
		out = append(out, k)
	}
	return out
}
