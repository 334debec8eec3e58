package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"runtime"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/transport"
)

// serveRates are the fixed arrival rates of the open loop, calls per
// second. At these rates a request finds the processors parked or not, and
// what waking a halted virtual processor costs changes with the host's
// load: the latency medians move 6–28 % run to run on the reference box.
var serveRates = []float64{10e3, 20e3, 30e3}

const (
	serveSessions = 64  // sessions on the pool, each one open-loop issuer
	serveSpinUs   = 100 // on-CPU service time of the mix's heavy request
)

func serveStream(rate float64) string { return fmt.Sprintf("serve_mix/arrivals/%.0f", rate) }

// serveDiscard is the start of a step that is not measured: a sixth of it,
// at most a second.
func serveDiscard(step time.Duration) time.Duration { return min(step/6, time.Second) }

type serveState struct {
	cl   *cluster.Cluster
	pool *serve.Pool
	sess []*serve.Session
	refs [machines]rmi.Ref
}

func (s *serveState) close() {
	s.pool.Close()
	s.cl.Shutdown()
}

func setUpServe() (*serveState, error) {
	cl, err := bootCluster()
	if err != nil {
		return nil, err
	}
	// One socket per machine carries all the sessions.
	pool, err := serve.NewPool(serve.PoolConfig{Transport: transport.TCP{}, Directory: cl.Directory(), Conns: 1})
	if err != nil {
		cl.Shutdown()
		return nil, err
	}
	s := &serveState{cl: cl, pool: pool}
	for i := 0; i < serveSessions; i++ {
		s.sess = append(s.sess, pool.Session())
	}
	for m := range s.refs {
		if s.refs[m], err = s.sess[0].New(bg, m, serve.ClassWork, nil); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

// servePass is the serve_mix workload: an open loop of independent users
// through the pooled front door. A slice is one step at each of the three
// fixed rates. It reports per-layer numbers only (see decls.go).
type servePass struct {
	p       plan
	r       *report
	st      *serveState
	echo    rmi.ArgEncoder
	sampled [serveSessions]sampler
	arrive  []*rand.Rand // one arrival stream per rate, continued slice to slice
	rates   []*rateStats
}

func startServeMix(p plan) (pass, error) {
	r := newReport(p.traced)
	payload := genPayload(rngFor(p.seed, "serve_mix/payload"), callPayload)
	st, _, err := setUp(false, setUpServe)
	if err != nil {
		return nil, err
	}
	w := &servePass{p: p, r: r, st: st, echo: serve.EchoArgs(payload)}
	for i := range w.sampled {
		w.sampled[i] = sampler{every: 256, drain: 1 << 30} // drained after each slice
	}
	for _, rate := range serveRates {
		w.arrive = append(w.arrive, rngFor(p.seed, serveStream(rate)))
		w.rates = append(w.rates, &rateStats{})
	}
	// Warm-up: every session dials through the pool and fills its pools.
	warm := 300 * time.Millisecond
	if p.size == smoke {
		warm = 30 * time.Millisecond
	}
	if _, err := runOpenLoop(genSchedule(rngFor(p.seed, "serve_mix/warm"), serveRates[0], warm), serveSessions, w.issue); err != nil {
		st.close()
		return nil, err
	}
	runtime.GC()
	return w, nil
}

var spinArgs = serve.SleepArgs(serveSpinUs)

// issue sends one scheduled request on its session and classifies the
// outcome.
func (w *servePass) issue(session int, a arrival) uint8 {
	sess, m := w.st.sess[session], int(a.machine)
	var err error
	switch a.kind {
	case kindEcho:
		// A session is one goroutine's, so its sampler needs no lock.
		err = w.r.layerCall(&w.sampled[session], "serve.Session.Call", func(ctx context.Context) error {
			d, err := sess.Call(ctx, w.st.refs[m], "echo", w.echo)
			d.Release()
			return err
		})
	case kindSpin:
		d, e := sess.Call(bg, w.st.refs[m], "spin", spinArgs)
		d.Release()
		err = e
	default:
		err = sess.Ping(bg, m)
	}
	switch {
	case err == nil:
		return outOK
	case errors.Is(err, rmi.ErrOverloaded):
		return outShed
	}
	return outFailed
}

func (w *servePass) slice(d time.Duration) error {
	// A step is never shorter than a few hundred arrivals.
	step := max(d/time.Duration(len(serveRates)), 30*time.Millisecond)
	for i, rate := range serveRates {
		sched := genSchedule(w.arrive[i], rate, step)
		out, err := runOpenLoop(sched, serveSessions, w.issue)
		if err != nil {
			return err
		}
		w.rates[i].addStep(sched, out, serveDiscard(step), step)
	}
	w.r.spans.drain()
	return nil
}

func (w *servePass) finish() (*report, error) {
	defer w.st.close()
	r, st := w.r, w.st
	for _, s := range w.rates {
		r.ops(s.offered, s.shed+s.failed)
	}
	// The highest rate that meets the limit, given as the requests per
	// second it answered within the limit; below the lowest rate, what
	// that one managed.
	best := w.rates[0]
	for _, s := range w.rates {
		if s.ok() {
			best = s
		}
	}
	r.setLayer("serve.rate_ok_per_s", "1/s", best.withinPerSec, best.offered)

	// Correctness, outside the timed steps: the pooled path echoes too.
	check := rngFor(w.p.seed, "serve_mix/check")
	for i := 0; i < 64; i++ {
		want := genPayload(check, callPayload)
		d, err := st.sess[i%serveSessions].Call(bg, st.refs[i&1], "echo", serve.EchoArgs(want))
		ok := err == nil && bytes.Equal(d.BytesView(), want)
		d.Release()
		r.check(ok, "pooled echo %d: reply differs from payload (err %v)", i, err)
	}

	if w.p.traced {
		tags := []string{"r10k", "r20k", "r30k"}
		var lateP99 []float64
		inflight := 0
		for i, s := range w.rates {
			r.setLayer1("serve.shed_frac_"+tags[i], "ratio", float64(s.shed)/float64(max(s.offered, 1)))
			lateP99 = append(lateP99, quantile(s.lates, 0.99))
			inflight = max(inflight, s.inflightMax)
			r.setLayer("serve.lat_p50_us_"+tags[i], "us", s.p50, s.offered)
			r.setLayer("serve.lat_p99_us_"+tags[i], "us", s.p99, s.offered)
		}
		top := w.rates[len(w.rates)-1]
		r.layer["serve.ping_p99_us_r30k"] = Stat{Value: quantile(top.pings, 0.99), Unit: "us", N: len(top.pings)}
		r.setLayer("serve.gen_late_p99_us", "us", lateP99, len(lateP99))
		r.setLayer1("serve.inflight_max", "count", float64(inflight))

		// What a session adds to a call: same echo, with and without it.
		c := st.cl.Client()
		direct, err := loopFor(0, 4000, func(i int) error { return callDiscard(c, bg, st.refs[i&1], "echo", w.echo) })
		if err != nil {
			return nil, err
		}
		pooled, err := loopFor(0, 4000, func(i int) error {
			d, err := st.sess[0].Call(bg, st.refs[i&1], "echo", w.echo)
			d.Release()
			return err
		})
		if err != nil {
			return nil, err
		}
		r.setLayer1("serve.session_overhead_us", "us", (median(pooled)-median(direct))/1e3)
	}
	return r, nil
}
