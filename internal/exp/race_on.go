//go:build race

package exp

// raceEnabled reports whether the race detector is active: its
// instrumentation allocates, so E14's and E17's allocs/op == 0 hard
// gates — and nothing else — are skipped under it.
const raceEnabled = true
