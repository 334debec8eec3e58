package exp

import (
	"errors"
	"fmt"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/metrics"
	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/transport"
)

// E14 exercises the high-fan-in serving tier end to end: the paper's
// "many user programs share the machine room" picture (§5) with the front
// door pieces PR 6 adds — connection pooling, per-priority admission
// control, and typed overload rejection. Four phases, one row each (plus
// the three-point load sweep), each on a front door of its own:
//
//   - storm: park a Work object's mailbox and issue 10k+ calls through a
//     pooled client — all of them must be held in flight on the server
//     at once (the 10k-client claim), then drain to completion when the
//     gate opens.
//   - burst: shrink the bulk budget to 64 and throw 96 bulk calls at a
//     parked mailbox — exactly 32 shed, each a typed ErrOverloaded
//     carrying a retry-after hint; nothing else is disturbed.
//   - hotpath: the small-call echo loop through a pooled Session must
//     keep the zero-allocation RMI hot path (allocs/op is the gated
//     metric).
//   - sweep: open-loop arrivals at 0.5x/1x/2x of a 1ms-serial server's
//     capacity. Admission keeps goodput at 2x within 20% of peak and
//     rejects fail in well under one service time.
//
// Shed msgs and allocs/op are pinned; the timing columns are facts about
// the host, printed for the record.
var e14 = Experiment{
	ID:    "E14",
	Title: "Serving tier: admission control and graceful saturation",
	Claim: "§5 \"many user programs\": a pooled front door holds 10k calls in flight, " +
		"sheds typed overloads in O(µs), and keeps goodput at 2x saturation",
	Columns: []string{"phase", "load", "offered", "ok", "rejected", "shed msgs",
		"p50 µs", "p99 µs", "p999 µs", "goodput ops/s", "allocs/op"},
	pinned: map[string]rule{"phase": label, "load": label, "shed msgs": exact, "allocs/op": ceiling},
	run: func(x *run) error {
		tr := transport.NewInproc(transport.LinkModel{})
		cl, err := x.cluster(cluster.Config{Machines: 1, Transport: tr})
		if err != nil {
			return err
		}
		srv := cl.Machine(0).Server()
		for _, ph := range []struct {
			name  string
			admit [rmi.NumPriorities]int // the server's admission budgets
			conns int                    // the pool's connections
			run   func(x *run, d door) error
		}{
			{"storm", [rmi.NumPriorities]int{rmi.PrioNormal: stormCalls + 64}, 8, e14Storm},
			{"burst", [rmi.NumPriorities]int{rmi.PrioBulk: bulkCap}, 8, e14Burst},
			{"hotpath", [rmi.NumPriorities]int{}, 2, e14HotPath},
			{"sweep", [rmi.NumPriorities]int{rmi.PrioNormal: queueCap}, 4, e14Sweep},
		} {
			top := len(x.undo)
			srv.SetAdmission(rmi.AdmissionConfig{Capacity: ph.admit})
			d := door{srv: srv}
			d.pool, err = serve.NewPool(serve.PoolConfig{Transport: tr, Directory: cl.Directory(), Conns: ph.conns})
			if err == nil {
				x.later(func() { d.pool.Close() })
				d.sess = d.pool.Session()
				d.ref, err = serve.WorkClass.New(bg, d.pool.ClientFor(0), 0, struct{}{})
			}
			if err == nil {
				x.later(func() { d.sess.Delete(bg, d.ref) })
				err = ph.run(x, d)
			}
			// Shed and refused requests free their slots just after the
			// reply is sent, so a phase must not read the last one's.
			if err == nil {
				err = waitUntil("every admission slot released", func() bool {
					return srv.QueueDepths() == [rmi.NumPriorities]int{}
				})
			}
			if err != nil {
				return fmt.Errorf("%s: %w", ph.name, err)
			}
			x.unwind(top)
		}
		return nil
	},
}

const (
	stormCalls        = 10240 // held in flight at once
	bulkCap, overflow = 64, 32
	serviceUs         = 1000 // 1ms serial service → capacity 1000 ops/s
	queueCap          = 32
)

// door is an E14 phase's front door onto the one-machine cluster: a pool
// of connections, a session on it and a Work object to call, all given
// back when the phase ends.
type door struct {
	srv  *rmi.Server
	pool *serve.Pool
	sess *serve.Session
	ref  rmi.Ref
}

// park calls wait on the Work object and returns once the server holds
// the call: every later serial call queues behind it until open.
func (d door) park() (*rmi.Future, error) {
	dam := d.sess.CallAsync(bg, d.ref, serve.WorkWait.Name(), nil)
	return dam, waitUntil("the dam admitted", func() bool { return d.srv.QueueDepths()[rmi.PrioNormal] >= 1 })
}

// open releases the dam; the call is concurrent and high priority, so it
// passes the parked mailbox.
func (d door) open() error {
	return d.sess.CallAsync(bg, d.ref, serve.WorkOpen.Name(), nil, rmi.WithPriority(rmi.PrioHigh)).Err(bg)
}

// e14Storm holds stormCalls calls in flight on one machine at once.
func e14Storm(x *run, d door) error {
	// Only start the storm once the dam is admitted, so every later call
	// is guaranteed to queue behind it.
	dam, err := d.park()
	if err != nil {
		return err
	}
	futs := []*rmi.Future{dam}
	start := time.Now()
	for i := 1; i < stormCalls; i++ {
		futs = append(futs, d.sess.CallAsync(bg, d.ref, serve.WorkSleep.Name(), serve.SleepArgs(0)))
	}
	// Every storm call must be admitted and held — in flight on the
	// server, not just pending on the client.
	if err := waitUntil(fmt.Sprintf("%d calls in flight", stormCalls), func() bool {
		return d.srv.QueueDepths()[rmi.PrioNormal] >= stormCalls
	}); err != nil {
		return err
	}
	if got := d.pool.InFlight(); got < stormCalls {
		return fmt.Errorf("pool in-flight %d < %d", got, stormCalls)
	}
	if err := d.open(); err != nil {
		return err
	}
	for _, f := range futs {
		if err := f.Err(bg); err != nil {
			return fmt.Errorf("storm call: %w", err)
		}
	}
	elapsed := time.Since(start)
	x.AddRow("storm", "-", fmt.Sprint(stormCalls), fmt.Sprint(stormCalls), "0", "0",
		"-", "-", "-", fmt.Sprintf("%.0f", float64(stormCalls)/elapsed.Seconds()), "-")
	x.Note("storm: %d calls held in flight simultaneously on one machine, drained in %v", stormCalls, elapsed.Round(time.Millisecond))
	return nil
}

// e14Burst overflows a bulkCap-slot bulk budget by exactly overflow calls.
func e14Burst(x *run, d door) error {
	dam, err := d.park()
	if err != nil {
		return err
	}
	bulk := d.pool.Session(rmi.WithPriority(rmi.PrioBulk))
	shedBefore := d.srv.Env().Counters().ReqShed.Load()
	var bulkFuts []*rmi.Future
	for i := 0; i < bulkCap+overflow; i++ {
		bulkFuts = append(bulkFuts, bulk.CallAsync(bg, d.ref, serve.WorkSleep.Name(), serve.SleepArgs(0)))
	}
	// The dam never opens until we say so, so no bulk call completes:
	// exactly bulkCap are admitted and exactly overflow shed, no matter
	// how the pooled connections interleave — provided every call has
	// ARRIVED before the dam opens (a straggler would find a freed slot),
	// so wait for the sheds as well as the depth.
	if err := waitUntil("the bulk budget full and the overflow shed", func() bool {
		return d.srv.QueueDepths()[rmi.PrioBulk] >= bulkCap && d.srv.Env().Counters().ReqShed.Load()-shedBefore >= overflow
	}); err != nil {
		return err
	}
	if err := d.open(); err != nil {
		return err
	}
	shed := 0
	for i, f := range bulkFuts {
		err := f.Err(bg)
		switch {
		case err == nil:
		case errors.Is(err, rmi.ErrOverloaded):
			if _, ok := rmi.RetryAfter(err); !ok {
				return fmt.Errorf("bulk call %d: shed without retry-after hint: %v", i, err)
			}
			shed++
		default:
			return fmt.Errorf("bulk call %d: non-typed failure: %w", i, err)
		}
	}
	if err := dam.Err(bg); err != nil {
		return fmt.Errorf("dam call: %w", err)
	}
	if shed != overflow {
		return fmt.Errorf("shed %d of %d overflow calls, want exactly %d", shed, overflow, overflow)
	}
	x.AddRow("burst", "bulk", fmt.Sprint(bulkCap+overflow), fmt.Sprint(bulkCap), fmt.Sprint(shed), fmt.Sprint(shed),
		"-", "-", "-", "-", "-")
	return nil
}

// e14HotPath runs the small-call echo loop through a pooled Session and
// gates its allocation count.
func e14HotPath(x *run, d door) error {
	const iters = 2000
	args := serve.EchoArgs(make([]byte, 64))
	call := func() error {
		r, err := d.sess.Call(bg, d.ref, serve.WorkEcho.Name(), args)
		r.Release()
		return err
	}
	if _, err := measure(0, 200, call); err != nil { // discarded: warms the pools, stays out of hist
		return err
	}
	var hist metrics.Hist
	s, err := measure(0, iters, func() error {
		t0 := time.Now()
		err := call()
		hist.Observe(time.Since(t0))
		return err
	})
	if err != nil {
		return err
	}
	if s.allocs > 0.5 && !raceEnabled {
		return fmt.Errorf("echo hot path allocates: %.2f allocs/op", s.allocs)
	}
	x.AddRow("hotpath", "echo 64B", fmt.Sprint(iters), fmt.Sprint(iters), "0", "0",
		fmt.Sprint(hist.QuantileUs(0.50)), fmt.Sprint(hist.QuantileUs(0.99)), fmt.Sprint(hist.QuantileUs(0.999)),
		fmt.Sprintf("%.0f", float64(time.Second)/float64(s.per)), fmt.Sprintf("%.2f", s.allocs))
	return nil
}

// e14Sweep drives open-loop load at 0.5x, 1x, and 2x of a 1ms-serial
// server's capacity, ~0.4 s per load point, and checks the saturation
// story: goodput holds and rejects fail fast.
func e14Sweep(x *run, d door) error {
	points := []struct {
		label string
		rate  float64
	}{{"0.5x", 500}, {"1x", 1000}, {"2x", 2000}}
	// The gate at the end compares wall-clock goodputs taken on a host the
	// suite shares with other packages' tests, and that noise only ever
	// takes goodput away: a sweep that misses the gate is measured again,
	// three times at most, and the last sweep's rows and notes are the
	// ones reported.
	var peak float64
	var last *serve.LoadResult
	rows, notes := len(x.Rows), len(x.Notes)
	for try := 1; try <= 3; try++ {
		peak, x.Rows, x.Notes = 0, x.Rows[:rows], x.Notes[:notes]
		for _, pt := range points {
			res := serve.OpenLoop(serve.LoadConfig{
				Rate:  pt.rate,
				Count: int(pt.rate) * 2 / 5,
				Call: func(i int) error {
					r, err := d.sess.Call(bg, d.ref, serve.WorkSleep.Name(), serve.SleepArgs(serviceUs))
					r.Release()
					return err
				},
			})
			if res.Failed != 0 {
				return fmt.Errorf("%s: %d non-typed failures (first: %v)", pt.label, res.Failed, res.FirstError)
			}
			if g := res.Goodput(); g > peak {
				peak = g
			}
			shedCell := "-" // sheds here depend on scheduling: reported, not gated
			x.AddRow("sweep", pt.label, fmt.Sprint(res.Offered), fmt.Sprint(res.OK), fmt.Sprint(res.Shed), shedCell,
				fmt.Sprint(res.Latency.QuantileUs(0.50)), fmt.Sprint(res.Latency.QuantileUs(0.99)), fmt.Sprint(res.Latency.QuantileUs(0.999)),
				fmt.Sprintf("%.0f", res.Goodput()), "-")
			if res.Shed >= 20 {
				rejP50, okP50 := res.Reject.QuantileUs(0.50), res.Latency.QuantileUs(0.50)
				if rejP50 >= okP50 {
					return fmt.Errorf("%s: rejects not fast: reject p50 %dµs >= success p50 %dµs", pt.label, rejP50, okP50)
				}
				x.Note("%s: reject p50 %dµs vs success p50 %dµs — shedding is cheaper than serving", pt.label, rejP50, okP50)
			}
			last = res
		}
		if last.Goodput() >= 0.8*peak {
			break
		}
	}
	if g := last.Goodput(); g < 0.8*peak {
		return fmt.Errorf("goodput collapsed at 2x: %.0f ops/s vs peak %.0f", g, peak)
	}
	x.Note("2x overload goodput %.0f ops/s within 20%% of peak %.0f — admission sheds instead of collapsing", last.Goodput(), peak)
	return nil
}
