//go:build race

package exp

// raceEnabled reports whether the race detector is active: its
// instrumentation allocates, so E14's and E17's allocs/op == 0 hard
// gates and the pin's allocs/op ceilings are skipped under it, and it
// slows per-element loops, so E13's fused-vs-unfused time gate is 1.5x
// instead of 2x. Nothing else.
const raceEnabled = true
