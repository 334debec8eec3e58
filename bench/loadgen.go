package main

import (
	"sort"
	"sync"
	"time"
)

// The benchmark's own open-loop generator. The schedule is fixed before
// the step starts; a request is timed from the instant it was due, so a
// stall charges the wait to every request it delays; how late the
// generator itself issued each request is recorded beside the latency;
// samples are exact nanoseconds.

// Outcome of one open-loop request.
const (
	outOK = iota
	outShed
	outFailed
)

type outcome struct {
	late   time.Duration // issue instant minus due instant
	lat    time.Duration // completion instant minus due instant
	status uint8
}

// failPenalty is the latency a shed or failed request is given when
// percentiles are taken: it counts as missing any latency limit.
const failPenalty = time.Second

// runOpenLoop issues sched on its clock. One dispatcher goroutine walks the
// schedule, waiting for each arrival's due instant and handing it to the
// sessions; each session goroutine is a session of the pool, issues the
// arrival it took and waits for the reply. The sessions bound the requests
// in flight; an arrival that finds them all busy waits in the queue, and
// that wait is in its latency because the clock started when it was due.
func runOpenLoop(sched []arrival, sessions int, issue func(session int, a arrival) uint8) ([]outcome, error) {
	clock, err := newSleeper()
	if err != nil {
		return nil, err
	}
	defer clock.close()
	out := make([]outcome, len(sched))
	due := make(chan int, len(sched)) // sized to the sends: the dispatcher never blocks on it
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := range due {
				at := start.Add(sched[i].due)
				t0 := time.Now()
				status := issue(s, sched[i])
				out[i] = outcome{late: t0.Sub(at), lat: time.Since(at), status: status}
			}
		}(s)
	}
	for i, a := range sched {
		// The timer is good to some tens of µs; shorter waits are spun out,
		// so that no request is ever issued early.
		if d := time.Until(start.Add(a.due)); d > 20*time.Microsecond {
			if err = clock.sleep(d); err != nil {
				break
			}
		}
		for time.Since(start) < a.due {
		}
		due <- i
	}
	close(due)
	wg.Wait()
	return out, err
}

// The serving tier's latency limit. On the reference box p99 at the highest
// rate is 4–5 ms: a 5 ms limit would sit on it and rate_ok_per_s would flip
// between two rates run by run; at 10 ms it moves when the tail doubles.
const (
	latencyLimit = 10 * time.Millisecond
	lossLimit    = 0.001 // shed + failed, as a share of offered
)

// rateStats accumulates, slice by slice, what the open loop measured at
// one fixed arrival rate. Each slice contributes one step at that rate;
// the start of every step is discarded.
type rateStats struct {
	offered      int
	shed, failed int
	p50, p99     []float64 // per step, µs
	withinPerSec []float64 // per step: requests per second answered within the limit
	pings        []float64 // the high-class ones
	lates        []float64 // generator lateness, µs
	inflightMax  int
	steps        int
	growing      int // steps that ended with a backlog their middle did not have
}

func latencyOf(o outcome) float64 {
	if o.status != outOK {
		return float64(failPenalty) / 1e3
	}
	return float64(o.lat) / 1e3
}

// addStep folds one step's outcomes in. Requests due before discard are
// dropped.
func (st *rateStats) addStep(sched []arrival, out []outcome, discard, dur time.Duration) {
	type event struct {
		at    time.Duration
		delta int
	}
	var events []event
	var lats []float64
	within := 0
	for i, a := range sched {
		events = append(events, event{a.due, +1}, event{a.due + out[i].lat, -1})
		if a.due < discard {
			continue
		}
		st.offered++
		switch out[i].status {
		case outShed:
			st.shed++
		case outFailed:
			st.failed++
		default:
			if out[i].lat <= latencyLimit {
				within++
			}
		}
		lat := latencyOf(out[i])
		lats = append(lats, lat)
		st.lates = append(st.lates, float64(out[i].late)/1e3)
		if a.kind == kindPing {
			st.pings = append(st.pings, lat)
		}
	}
	st.steps++
	st.withinPerSec = append(st.withinPerSec, float64(within)/(dur-discard).Seconds())
	if len(lats) > 0 {
		sl := sorted(lats)
		st.p50 = append(st.p50, quantileSorted(sl, 0.50))
		st.p99 = append(st.p99, quantileSorted(sl, 0.99))
	}

	// Requests in the system over time: +1 when due, -1 when answered. A
	// backlog that grows shows as more of them over the step's last fifth
	// than over its middle fifth: a queue growing steadily from the start
	// of the step holds 1.6 to 1.8 times as many; 1.3 times plus a few
	// requests is beyond what a hiccup leaves behind.
	sort.Slice(events, func(i, j int) bool { return events[i].at < events[j].at })
	fifth := (dur - discard) / 5
	midLo, midHi := discard+2*fifth, discard+3*fifth
	endLo, endHi := discard+4*fifth, dur
	var level int
	var prev time.Duration
	var midArea, endArea float64
	for _, e := range events {
		midArea += float64(level) * float64(overlap(prev, e.at, midLo, midHi))
		endArea += float64(level) * float64(overlap(prev, e.at, endLo, endHi))
		level += e.delta
		if level > st.inflightMax && e.at >= discard {
			st.inflightMax = level
		}
		prev = e.at
	}
	if endArea/float64(fifth) > 1.3*midArea/float64(fifth)+4 {
		st.growing++
	}
}

// ok reports whether the rate met the latency limit without a growing
// backlog: the steps' p99 within the limit (the median step's, like every
// reported value; a shed or failed request counts as over the limit),
// losses within theirs, and no backlog growth in most steps.
func (st *rateStats) ok() bool {
	loss := float64(st.shed+st.failed) / float64(max(st.offered, 1))
	return median(st.p99) <= float64(latencyLimit)/1e3 && loss <= lossLimit && 2*st.growing < st.steps
}

// overlap is the length of [a0,a1) ∩ [b0,b1).
func overlap(a0, a1, b0, b1 time.Duration) time.Duration {
	lo, hi := max(a0, b0), min(a1, b1)
	if hi <= lo {
		return 0
	}
	return hi - lo
}
