//go:build !race

package constraint

// raceEnabled reports whether the race detector is on. It makes
// sync.Pool drop items at random, so pooled paths allocate under it.
const raceEnabled = false
