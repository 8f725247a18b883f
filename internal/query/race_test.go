//go:build race

package query

// raceEnabled: the race detector's sync.Pool drops a random share of the
// items it is given, so tests that count on reuse skip.
const raceEnabled = true
