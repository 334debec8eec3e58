//go:build !linux

package main

import "time"

// sleeper falls back to the runtime's timers where there is no timerfd;
// the generator's lateness, which is reported, says what that costs.
type sleeper struct{}

func newSleeper() (*sleeper, error) { return &sleeper{}, nil }

func (s *sleeper) sleep(d time.Duration) error { time.Sleep(d); return nil }

func (s *sleeper) close() {}
