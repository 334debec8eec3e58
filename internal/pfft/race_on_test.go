//go:build race

package pfft_test

// raceEnabled reports whether the race detector is active; its
// instrumentation allocates, which invalidates allocation-count
// assertions.
const raceEnabled = true
