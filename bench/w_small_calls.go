package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/collection"
	"oopp/internal/metrics"
	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/trace"
	"oopp/internal/wire"
)

const (
	callPayload       = 64 // bytes echoed by every small call
	collectionMembers = 16 // phase C: 8 objects per machine
)

// classBusy is a remote object whose one method body — burn the given
// number of microseconds on the CPU — is registered twice, serial and
// concurrent, for rmi.concurrent_speedup.
const classBusy = "bench.Busy"

func init() {
	burn := func(obj any, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		d := time.Duration(args.Int()) * time.Microsecond
		for start := time.Now(); time.Since(start) < d; {
		}
		return nil
	}
	rmi.Register(classBusy, func(env *rmi.Env, args *wire.Decoder) (any, error) { return new(struct{}), nil }).
		Method("serial", burn).
		ConcurrentMethod("concurrent", burn)
}

type callsState struct {
	cl   *cluster.Cluster
	refs [machines]rmi.Ref
	coll *collection.Collection[*serve.Work]
}

func (s *callsState) close() { s.cl.Shutdown() }

func setUpCalls() (*callsState, error) {
	cl, err := bootCluster()
	if err != nil {
		return nil, err
	}
	s := &callsState{cl: cl}
	for m := range s.refs {
		if s.refs[m], err = cl.Client().New(bg, m, serve.ClassWork, nil); err != nil {
			cl.Shutdown()
			return nil, err
		}
	}
	s.coll, err = collection.SpawnNamed[*serve.Work](bg, cl.Client(),
		collection.Cyclic(collectionMembers, machines), serve.ClassWork, nil)
	if err != nil {
		cl.Shutdown()
		return nil, err
	}
	return s, nil
}

// callsPass is the small_calls workload: closed loops of 64 B echo calls
// by one caller. The operation is one call, alternating machines; its bare
// reference is one trip over bareRelay. The variant is a round over a
// 16-member collection — a broadcast, then a reduce: the same layers
// through the async path and the collection's fan-out — and its reference
// two fans of 16 over the relay. A round of the pass is a lane of each, a
// few hundred calls long; a lane's value is its median. A traced pass adds
// phase B, one caller per processor, whose rate is a per-layer number: two
// closed loops on two processors settle into a different rhythm run by run.
type callsPass struct {
	p     plan
	r     *report
	st    *callsState
	relay *bareRelay
	echo  rmi.ArgEncoder
	round func(ctx context.Context) error

	sampleA, sampleC sampler
	// Per round of the pass, ns: the medians of the four lanes, and the
	// call lane's 99th percentile.
	call, trip, coll, fan, callP99 []float64
	ends                           []int     // rounds done at the end of each slice
	rate                           []float64 // phase B, per slice, calls/s
	calls, par, colls              int       // samples behind the three
}

// laneLen is how long one lane of a round lasts: long enough for a median
// over hundreds of calls or tens of collective rounds, short enough that
// the box is the same box for all four lanes of the round.
func (w *callsPass) laneLen() time.Duration {
	if w.p.size == smoke {
		return 2 * time.Millisecond
	}
	return 15 * time.Millisecond
}

func startSmallCalls(p plan) (pass, error) {
	r := newReport(p.traced)
	payload := genPayload(rngFor(p.seed, "small_calls/payload"), callPayload)
	st, secs, err := setUp(p.repeatSetup, setUpCalls)
	if err != nil {
		return nil, err
	}
	r.setE2E("setup_s", "s", secs, len(secs))
	relay, err := newBareRelay(callPayload)
	if err != nil {
		st.close()
		return nil, err
	}
	c := st.cl.Client()
	echo := serve.EchoArgs(payload)
	memberEcho := func(_ collection.Member, e *wire.Encoder) error { e.PutBytes(payload); return nil }
	replyLen := func(_ collection.Member, d *wire.Decoder) (int, error) { return len(d.BytesView()), d.Err() }
	round := func(ctx context.Context) error {
		if err := st.coll.Broadcast(ctx, "echo", memberEcho); err != nil {
			return err
		}
		n, err := collection.Reduce(ctx, st.coll, "echo", memberEcho, replyLen, collection.SumInt)
		if err == nil && n != collectionMembers*callPayload {
			err = fmt.Errorf("reduce over %d members returned %d bytes", collectionMembers, n)
		}
		return err
	}
	w := &callsPass{p: p, r: r, st: st, relay: relay, echo: echo, round: round,
		sampleA: sampler{every: 64, drain: 256}, sampleC: sampler{every: 16, drain: 32}}

	// Warm-up: dial both machines, fill the waiter and buffer pools.
	for i := 0; i < 2000 && err == nil; i++ {
		if err = callDiscard(c, bg, st.refs[i&1], "echo", echo); err == nil {
			err = relay.trip(i & 1)
		}
	}
	for i := 0; i < 50 && err == nil; i++ {
		if err = round(bg); err == nil {
			err = relay.fan(collectionMembers)
		}
	}
	if err != nil {
		w.close()
		return nil, err
	}
	runtime.GC()
	return w, nil
}

func (w *callsPass) close() {
	w.relay.close()
	w.st.close()
}

// lane runs op for the lane's length and returns the sorted durations.
func (w *callsPass) lane(min int, op func(i int) error) ([]float64, error) {
	ns, err := loopFor(w.laneLen(), min, op)
	sort.Float64s(ns)
	return ns, err
}

func (w *callsPass) slice(d time.Duration) error {
	c := w.st.cl.Client()
	if w.p.traced {
		d = d * 2 / 3
	}
	// The slice before this one may have been another workload's: let the
	// processors' caches and the parked goroutines come back before timing.
	for i := 0; i < 200; i++ {
		if err := callDiscard(c, bg, w.st.refs[i&1], "echo", w.echo); err != nil {
			return err
		}
	}
	_, err := loopFor(d, 1, func(int) error {
		trip, err := w.lane(100, func(i int) error { return w.relay.trip(i & 1) })
		if err != nil {
			return err
		}
		call, err := w.lane(100, func(i int) error {
			return w.r.layerCall(&w.sampleA, "rmi.Client.Call", func(ctx context.Context) error {
				return callDiscard(c, ctx, w.st.refs[i&1], "echo", w.echo)
			})
		})
		if err != nil {
			return err
		}
		coll, err := w.lane(10, func(int) error {
			return w.r.layerCall(&w.sampleC, "collection.Broadcast+Reduce", w.round)
		})
		if err != nil {
			return err
		}
		fan, err := w.lane(10, func(int) error {
			if err := w.relay.fan(collectionMembers); err != nil {
				return err
			}
			return w.relay.fan(collectionMembers)
		})
		if err != nil {
			return err
		}
		w.trip = append(w.trip, quantileSorted(trip, 0.5))
		w.call = append(w.call, quantileSorted(call, 0.5))
		w.callP99 = append(w.callP99, quantileSorted(call, 0.99))
		w.coll = append(w.coll, quantileSorted(coll, 0.5))
		w.fan = append(w.fan, quantileSorted(fan, 0.5))
		w.calls += len(call)
		w.colls += len(coll)
		return nil
	})
	w.ends = append(w.ends, len(w.call))
	if err != nil || !w.p.traced {
		return err
	}

	perSec, n, err := closedLoopRate(runtime.GOMAXPROCS(0), d/2, func(caller, i int) error {
		return callDiscard(c, bg, w.st.refs[(caller+i)&1], "echo", w.echo)
	})
	if err != nil {
		return err
	}
	w.rate = append(w.rate, perSec)
	w.par += n
	w.r.spans.drain() // before another pass's slice fills the ring
	return nil
}

func (w *callsPass) finish() (*report, error) {
	defer w.close()
	r, c := w.r, w.st.cl.Client()
	r.ops(w.calls+w.par+w.colls, 0)
	r.setE2E("op_x_bare", "x", overBare(w.call, w.trip, w.ends), w.calls)
	r.setE2E("alt_x_bare", "x", overBare(w.coll, w.fan, w.ends), w.colls)
	us := func(ns []float64) []float64 { return scaleAll(perSlice(ns, w.ends, median), 1e-3) }
	r.setLayer("rmi.call_p50_us", "us", us(w.call), w.calls)
	r.setLayer("rmi.call_p99_us", "us", us(w.callP99), w.calls)
	r.setLayer("collection.round_p50_us", "us", us(w.coll), w.colls)
	r.setLayer("calib.relay_rtt_us", "us", us(w.trip), w.calls)
	r.setLayer("calib.relay_fan_us", "us", us(w.fan), w.colls)
	r.spans.drain()

	// Correctness, outside the timed slices: the echo returns its payload.
	check := rngFor(w.p.seed, "small_calls/check")
	for i := 0; i < 64; i++ {
		want := genPayload(check, callPayload)
		d, err := c.Call(bg, w.st.refs[i&1], "echo", serve.EchoArgs(want))
		ok := err == nil && bytes.Equal(d.BytesView(), want)
		d.Release()
		r.check(ok, "echo %d: reply differs from payload (err %v)", i, err)
	}
	if w.p.traced {
		r.setLayer("rmi.calls_per_s", "1/s", w.rate, w.par)
		if err := smallCallsLayers(r, w.st, w.echo, w.round, median(w.coll)); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// sampler decides which operations of a traced pass run under a sampled
// root, and when the program's span ring is drained.
type sampler struct {
	every, drain int
	seen, taken  int
}

// layerCall makes one call into a layer. An untraced pass just makes it.
// A traced pass records it as a span of the benchmark's own, and issues
// every sampler.every-th under a sampled root so that the program captures
// its spans beneath the benchmark's.
func (r *report) layerCall(s *sampler, name string, f func(ctx context.Context) error) error {
	if r.spans == nil {
		return f(bg)
	}
	s.seen++
	if s.seen%s.every != 0 {
		t := r.spans.begin(name, 0, 0)
		err := f(bg)
		t.end()
		return err
	}
	ctx, t := r.spans.beginSampled(bg, name)
	err := f(ctx)
	t.end()
	if s.taken++; s.taken%s.drain == 0 {
		r.spans.drain()
	}
	return err
}

// closedLoopRate runs callers closed loops of op for dur and returns the
// completed operations per second and their number.
func closedLoopRate(callers int, dur time.Duration, op func(caller, i int) error) (float64, int, error) {
	var done atomic.Int64
	var stop atomic.Bool
	var wg sync.WaitGroup
	errs := make([]error, callers)
	start := time.Now()
	for k := 0; k < callers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				if errs[k] = op(k, i); errs[k] != nil {
					return
				}
				done.Add(1)
			}
		}(k)
	}
	time.Sleep(dur)
	n, elapsed := done.Load(), time.Since(start)
	stop.Store(true)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	return float64(n) / elapsed.Seconds(), int(n), nil
}

// smallCallsLayers takes the rmi, collection and trace numbers of a traced
// pass: counts and timings around the same calls, read from outside.
func smallCallsLayers(r *report, st *callsState, echo rmi.ArgEncoder, round func(context.Context) error, roundP50 float64) error {
	c := st.cl.Client()

	const calls = 4000
	d, err := countersAround(func() error {
		for i := 0; i < calls; i++ {
			if err := callDiscard(c, bg, st.refs[i&1], "echo", echo); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.setLayer1("rmi.call_allocs", "count", float64(d.Mallocs)/calls)
	r.setLayer1("rmi.msgs_per_call", "count", float64(d.MessagesSent)/calls)
	r.setLayer1("rmi.bytes_per_call", "B", float64(d.BytesSent)/calls)

	async, err := loopFor(0, calls, func(i int) error {
		dec, err := c.CallAsync(bg, st.refs[i&1], "echo", echo).Wait(bg)
		dec.Release()
		return err
	})
	if err != nil {
		return err
	}
	asyncP50 := perSegment(async, median)
	r.setLayer("rmi.async_call_us", "us", scaleAll(asyncP50, 1e-3), len(async))

	// Server side of the echo, admission to reply, from the debug plane.
	var server metrics.Hist
	for m := 0; m < machines; m++ {
		buf, err := c.Debug(bg, m)
		if err != nil {
			return err
		}
		var snap trace.Snapshot
		if err := json.Unmarshal(buf, &snap); err != nil {
			return err
		}
		for _, ms := range snap.Methods {
			if ms.Name == serve.ClassWork+".echo" {
				server.Merge(ms.Hist)
			}
		}
	}
	r.layer["rmi.server_p50_us"] = Stat{Value: float64(server.QuantileUs(0.5)), Unit: "us", N: int(server.Count())}

	// A2: a concurrent method against a serial one, on one object.
	busy, err := c.New(bg, 1, classBusy, nil)
	if err != nil {
		return err
	}
	burn := serve.SleepArgs(50)
	var perSec [2]float64
	for k, method := range []string{"serial", "concurrent"} {
		if perSec[k], _, err = closedLoopRate(runtime.GOMAXPROCS(0), 300*time.Millisecond, func(_, _ int) error {
			return callDiscard(c, bg, busy, method, burn)
		}); err != nil {
			return err
		}
	}
	r.setLayer1("rmi.concurrent_speedup", "ratio", perSec[1]/perSec[0])

	// collection: one round is a broadcast and a reduce over the members.
	d, err = countersAround(func() error {
		for i := 0; i < 200; i++ {
			if err := round(bg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.setLayer1("collection.allocs_per_round", "count", float64(d.Mallocs)/200)
	r.setLayer1("collection.msgs_per_round", "count", float64(d.MessagesSent)/200)
	r.setLayer1("collection.per_member_us", "us", (roundP50-median(asyncP50))/1e3/collectionMembers)
	barrier, err := loopFor(0, 500, func(int) error { return st.coll.Barrier(bg) })
	if err != nil {
		return err
	}
	r.setLayer("collection.barrier_us", "us", scaleAll(perSegment(barrier, median), 1e-3), len(barrier))

	// The program's own spans of the sampled calls: what of a call's time
	// is the client's and what the server's.
	r.spans.drain()
	rows := r.spans.ladder()
	clientSelf, _, _ := selfOf(rows, "call "+serve.ClassWork+".echo")
	_, serverMean, n := selfOf(rows, "serve "+serve.ClassWork+".echo")
	r.layer["trace.call_client_self_us"] = Stat{Value: clientSelf, Unit: "us", N: n}
	r.layer["trace.call_server_exec_us"] = Stat{Value: serverMean, Unit: "us", N: n}
	return nil
}
