// opploadgen drives a running cluster with open-loop load through the
// serving tier — the measurement companion to cmd/oppcluster and the
// closed-form experiments in E14. Arrivals come at a fixed rate
// regardless of how the server responds (the open-loop property: an
// overloaded server accumulates concurrency instead of slowing the
// clock), so offered load really is offered, and the printed goodput,
// shed count, and latency quantiles describe the server, not the
// generator.
//
// Point it at a cluster the same way the demo client is pointed:
//
//	oppcluster -serve -machine 0 -addr 127.0.0.1:9100 -peers 127.0.0.1:9100 &
//	opploadgen -peers 127.0.0.1:9100 -rate 2000 -duration 5s -mix echo=8,sleep=1,ping=1
//
// The mix is a weighted list of call kinds:
//
//	echo   — small-payload echo (-size bytes), normal priority
//	sleep  — off-CPU service time (-service-us), normal priority
//	spin   — on-CPU service time (-service-us), normal priority
//	bulk   — sleep issued at bulk priority (the sweep traffic)
//	ping   — liveness probe, high priority (never queues behind bulk)
//	relay  — echo routed through a peer machine (two-hop), normal priority
//
// The RESULT line reports overall and per-priority-class latency
// quantiles (high/normal/bulk), because under overload the per-class
// split is the claim being tested: high keeps its latency while bulk
// absorbs the queue. With -sample a fraction of calls is issued
// rmi.WithSampled, so a cluster's span rings fill with real-workload
// traces for cmd/opptrace to pull.
//
// Exit status is 0 only for a clean run: any non-typed error fails the
// run, and with -expect-sheds the run also fails if the server never
// shed (meaning the test didn't actually reach overload). Typed
// ErrOverloaded rejections are healthy behavior under overload and are
// reported, not failed.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

func main() {
	peers := flag.String("peers", "", "comma-separated machine addresses, index order")
	registry := flag.String("registry", "", "shared registry directory (alternative to -peers)")
	machines := flag.Int("machines", 0, "cluster size (defaults to the number of -peers)")
	conns := flag.Int("conns", 4, "pooled connections per machine")
	sessions := flag.Int("sessions", 64, "logical client sessions multiplexed over the pool")
	rate := flag.Float64("rate", 1000, "offered load in calls per second")
	duration := flag.Duration("duration", 5*time.Second, "length of the arrival schedule (count = rate * duration)")
	mix := flag.String("mix", "echo=1", "weighted call mix, e.g. echo=8,sleep=1,ping=1")
	serviceUs := flag.Int("service-us", 1000, "service time of sleep/spin/bulk calls in microseconds")
	size := flag.Int("size", 64, "echo payload bytes")
	timeout := flag.Duration("timeout", 30*time.Second, "per-call timeout")
	expectSheds := flag.Bool("expect-sheds", false, "fail unless the server shed at least one call (overload smoke tests)")
	sample := flag.Float64("sample", 0, "fraction of calls issued with span capture on (0..1, deterministic)")
	flag.Parse()

	if err := run(*peers, *registry, *machines, *conns, *sessions, *rate, *duration,
		*mix, *serviceUs, *size, *timeout, *expectSheds, *sample); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

// kind is one entry of the call mix.
type kind struct {
	name   string
	weight int
}

// parseMix reads "echo=8,sleep=1" into an expanded weighted ring, so the
// generator picks kinds deterministically by arrival index (no RNG: two
// runs with the same flags issue the same sequence).
func parseMix(s string) ([]string, error) {
	var kinds []kind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, weightStr, found := strings.Cut(part, "=")
		weight := 1
		if found {
			var err error
			weight, err = strconv.Atoi(weightStr)
			if err != nil || weight < 1 {
				return nil, fmt.Errorf("mix entry %q: weight must be a positive integer", part)
			}
		}
		switch name {
		case "echo", "sleep", "spin", "bulk", "ping", "relay":
		default:
			return nil, fmt.Errorf("mix entry %q: unknown kind (echo, sleep, spin, bulk, ping, relay)", part)
		}
		kinds = append(kinds, kind{name, weight})
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("empty -mix")
	}
	var ring []string
	for _, k := range kinds {
		for i := 0; i < k.weight; i++ {
			ring = append(ring, k.name)
		}
	}
	return ring, nil
}

// classOf maps a mix kind to the admission class its call travels at.
func classOf(kind string) rmi.Priority {
	switch kind {
	case "ping":
		return rmi.PrioHigh
	case "bulk":
		return rmi.PrioBulk
	default:
		return rmi.PrioNormal
	}
}

func run(peers, registry string, machines, conns, sessions int, rate float64,
	duration time.Duration, mix string, serviceUs, size int, timeout time.Duration, expectSheds bool, sample float64) error {
	ring, err := parseMix(mix)
	if err != nil {
		return err
	}
	dir, err := cluster.PeerDirectory(machines, peers, registry)
	if err != nil {
		return err
	}
	if dir == nil {
		return fmt.Errorf("need -peers or -registry")
	}
	count := int(rate * duration.Seconds())
	if count < 1 {
		return fmt.Errorf("rate %v over %v offers no calls", rate, duration)
	}
	if sessions < 1 {
		sessions = 1
	}

	pool, err := serve.NewPool(serve.PoolConfig{Transport: transport.TCP{}, Directory: dir, Conns: conns})
	if err != nil {
		return err
	}
	defer pool.Close()

	// Readiness barrier, then one Work object per machine: calls fan out
	// round-robin so every machine sees its share of the offered load.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	bootTimeout := rmi.WithTimeout(10 * time.Second)
	boot := pool.Session(bootTimeout)
	if err := cluster.WaitReady(ctx, pool.ClientFor(0)); err != nil {
		return fmt.Errorf("cluster not ready: %w", err)
	}
	refs := make([]rmi.Ref, dir.Size())
	for m := range refs {
		refs[m], err = serve.WorkClass.New(ctx, pool.ClientFor(m), m, struct{}{}, bootTimeout)
		if err != nil {
			return fmt.Errorf("machine %d: new %s: %w", m, serve.WorkClass.Name(), err)
		}
	}
	var peerRefs []rmi.Ref
	if strings.Contains(mix, "relay") {
		// Bind each Work to a DEDICATED echo peer on its ring successor,
		// not to the successor's front object: the front objects take
		// relay calls, and serial relays waiting on each other's serial
		// echoes ring-deadlock under load. The peers only ever serve the
		// relayed echo, so the wait graph stays acyclic.
		peerRefs = make([]rmi.Ref, len(refs))
		for m := range refs {
			next := (m + 1) % len(refs)
			peerRefs[m], err = serve.WorkClass.New(ctx, pool.ClientFor(next), next, struct{}{}, bootTimeout)
			if err != nil {
				return fmt.Errorf("machine %d: new relay peer: %w", next, err)
			}
		}
		for m, ref := range refs {
			if _, err := serve.WorkBind.Call(ctx, pool.ClientFor(m), ref, peerRefs[m], bootTimeout); err != nil {
				return fmt.Errorf("machine %d: bind relay peer: %w", m, err)
			}
		}
	}
	defer func() {
		for _, ref := range refs {
			_ = boot.Delete(ctx, ref)
		}
		for _, ref := range peerRefs {
			_ = boot.Delete(ctx, ref)
		}
	}()

	sess := make([]*serve.Session, sessions)
	for i := range sess {
		sess[i] = pool.Session(rmi.WithTimeout(timeout))
	}
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	echoArgs := serve.EchoArgs(payload)
	sleepArgs := serve.SleepArgs(serviceUs)

	// Deterministic sampling: every sampleEvery-th arrival carries
	// rmi.WithSampled (1 = all). No RNG, same flags → same sampled set.
	sampleEvery := 0
	if sample > 0 {
		sampleEvery = int(1 / sample)
		if sampleEvery < 1 {
			sampleEvery = 1
		}
	}

	fmt.Printf("offering %d calls at %.0f/s over %d sessions x %d conns to %d machines (mix %s, sample %.3g)\n",
		count, rate, sessions, conns, dir.Size(), mix, sample)
	res := serve.OpenLoop(serve.LoadConfig{
		Rate:    rate,
		Count:   count,
		ClassOf: func(i int) rmi.Priority { return classOf(ring[i%len(ring)]) },
		Call: func(i int) error {
			s := sess[i%len(sess)]
			ref := refs[i%len(refs)]
			var opts []rmi.CallOption
			if sampleEvery > 0 && i%sampleEvery == 0 {
				opts = append(opts, rmi.WithSampled())
			}
			var d *wire.Decoder
			var err error
			switch ring[i%len(ring)] {
			case "echo":
				d, err = s.Call(ctx, ref, serve.WorkEcho.Name(), echoArgs, opts...)
			case "sleep":
				d, err = s.Call(ctx, ref, serve.WorkSleep.Name(), sleepArgs, opts...)
			case "spin":
				d, err = s.Call(ctx, ref, serve.WorkSpin.Name(), sleepArgs, opts...)
			case "bulk":
				d, err = s.Call(ctx, ref, serve.WorkSleep.Name(), sleepArgs, append(opts, rmi.WithPriority(rmi.PrioBulk))...)
			case "ping":
				err = s.Ping(ctx, ref.Machine, opts...)
			case "relay":
				d, err = s.Call(ctx, ref, serve.WorkRelay.Name(), echoArgs, opts...)
			}
			if d != nil {
				d.Release()
			}
			return err
		},
	})

	fmt.Printf("RESULT offered=%d ok=%d shed=%d failed=%d elapsed=%v goodput=%.0f/s "+
		"p50=%dµs p99=%dµs p999=%dµs reject_p50=%dµs\n",
		res.Offered, res.OK, res.Shed, res.Failed, res.Elapsed.Round(time.Millisecond), res.Goodput(),
		res.Latency.QuantileUs(0.50), res.Latency.QuantileUs(0.99), res.Latency.QuantileUs(0.999),
		res.Reject.QuantileUs(0.50))
	for p := rmi.Priority(0); p < rmi.NumPriorities; p++ {
		h := &res.ByClass[p]
		if h.Count() == 0 {
			continue
		}
		fmt.Printf("RESULT class=%s n=%d p50=%dµs p99=%dµs p999=%dµs\n",
			p, h.Count(), h.QuantileUs(0.50), h.QuantileUs(0.99), h.QuantileUs(0.999))
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d non-typed failures (first: %v)", res.Failed, res.FirstError)
	}
	if expectSheds && res.Shed == 0 {
		return fmt.Errorf("-expect-sheds: offered %d calls at %.0f/s but the server never shed — not actually overloaded", count, rate)
	}
	return nil
}
