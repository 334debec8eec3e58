//go:build !race

package bufpool

// raceEnabled reports whether the race detector is active. Under it a
// sync.Pool drops a share of what is put on purpose, so a small-tier Put
// need not come back from the next Get, and that Get may allocate.
const raceEnabled = false
