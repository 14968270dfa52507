//go:build race

package policy

// raceEnabled reports that the race detector is on: sync.Pool then drops
// a quarter of what it is handed, so allocation counts mean nothing.
const raceEnabled = true
