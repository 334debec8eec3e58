//go:build !race

package exp

// raceEnabled reports whether the race detector is active (see
// race_on.go).
const raceEnabled = false
