//go:build !race

package aggtable

const raceEnabled = false
