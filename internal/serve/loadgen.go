package serve

import (
	"errors"
	"sync"
	"time"

	"oopp/internal/metrics"
	"oopp/internal/rmi"
)

// LoadConfig describes one open-loop load run.
type LoadConfig struct {
	// Rate is the offered load in arrivals per second (> 0).
	Rate float64
	// Count is the number of requests to issue.
	Count int
	// Call issues request i and returns its outcome. It runs on a fresh
	// goroutine per arrival (the open-loop property: a slow server
	// accumulates concurrency instead of slowing the arrival clock).
	Call func(i int) error
	// ClassOf maps arrival i to the admission class its call travels at,
	// for the per-class latency split in LoadResult.ByClass. Nil records
	// everything under rmi.PrioNormal.
	ClassOf func(i int) rmi.Priority
}

// LoadResult aggregates an open-loop run. Latency histograms separate
// successes from sheds: the headline claim of admission control is that
// a rejection is much cheaper than a served call, and mixing the two
// distributions would hide exactly that.
type LoadResult struct {
	Offered int // requests issued
	OK      int // completed successfully
	Shed    int // rejected with rmi.ErrOverloaded
	Failed  int // any other error — should be zero in a healthy run

	Latency metrics.Hist // latency of successful calls
	Reject  metrics.Hist // latency of shed calls (time to fail fast)

	// ByClass splits successful-call latency by admission class (indexed
	// by rmi.Priority): under overload the whole point of priorities is
	// that the high class keeps its latency while bulk absorbs the queue,
	// and only a per-class split can show that.
	ByClass [rmi.NumPriorities]metrics.Hist

	Elapsed    time.Duration // first arrival to last completion
	FirstError error         // first non-overload failure, for diagnosis
}

// Goodput returns completed requests per second over the run.
func (r *LoadResult) Goodput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.OK) / r.Elapsed.Seconds()
}

// OpenLoop issues cfg.Count requests at a fixed arrival rate and waits
// for all of them. Arrivals are scheduled against the wall clock from
// the run's start — if the generator falls behind (scheduler hiccup), it
// issues immediately rather than stretching the schedule, preserving the
// offered rate on average. A request's latency runs from its due instant,
// start + i/Rate, not from when its goroutine got to run: the time a late
// generator owes a request is time that request waited, and leaving it out
// would hide the lag (coordinated omission).
func OpenLoop(cfg LoadConfig) *LoadResult {
	res := &LoadResult{Offered: cfg.Count}
	if cfg.Count <= 0 || cfg.Rate <= 0 || cfg.Call == nil {
		return res
	}
	var (
		wg sync.WaitGroup
		mu sync.Mutex // guards the int counters and FirstError
	)
	interval := float64(time.Second) / cfg.Rate
	start := time.Now()
	for i := 0; i < cfg.Count; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			err := cfg.Call(i)
			lat := time.Since(due)
			switch {
			case err == nil:
				res.Latency.Observe(lat)
				cls := rmi.PrioNormal
				if cfg.ClassOf != nil {
					if c := cfg.ClassOf(i); c < rmi.NumPriorities {
						cls = c
					}
				}
				res.ByClass[cls].Observe(lat)
				mu.Lock()
				res.OK++
				mu.Unlock()
			case errors.Is(err, rmi.ErrOverloaded):
				res.Reject.Observe(lat)
				mu.Lock()
				res.Shed++
				mu.Unlock()
			default:
				mu.Lock()
				res.Failed++
				if res.FirstError == nil {
					res.FirstError = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	res.Elapsed = time.Since(start)
	return res
}
