package e2e

import (
	"errors"
	"testing"
	"time"

	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/transport"
)

// servingPool builds a pooled front door over the e2e cluster's registry
// — the production client shape of the serving tier, over real sockets.
func servingPool(t *testing.T, cl *Cluster, conns int) *serve.Pool {
	t.Helper()
	p, err := serve.NewPool(serve.PoolConfig{
		Transport: transport.TCP{},
		Directory: cl.Registry,
		Conns:     conns,
	})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestServingTierAdmissionOverTCP saturates a real server process's
// normal class to exactly its capacity and proves the front-door story
// over sockets: the overflow call fails with a typed ErrOverloaded
// carrying a retry-after hint, while high-priority traffic — direct
// pings, the heartbeat detector, and a PrioHigh call — is admitted
// throughout. No false ErrMachineDown, no lost work.
func TestServingTierAdmissionOverTCP(t *testing.T) {
	const normalCap = 8
	cl := StartCluster(t, 2, AdmitEnv+"=0,8,4")
	ctx := testCtx(t)
	p := servingPool(t, cl, 1) // one conn: FIFO makes the shed deterministic
	sess := p.Session(rmi.WithTimeout(30 * time.Second))

	ref, err := sess.New(ctx, 1, serve.ClassWork, nil)
	if err != nil {
		t.Fatalf("new Work: %v", err)
	}
	// Park the mailbox and fill the normal class to exactly its cap: the
	// gate holds every slot occupied, so call cap+1 must shed.
	futs := []*rmi.Future{sess.CallAsync(ctx, ref, "wait", nil)}
	for i := 1; i < normalCap; i++ {
		futs = append(futs, sess.CallAsync(ctx, ref, "sleep", serve.SleepArgs(0)))
	}
	_, err = sess.Call(ctx, ref, "sleep", serve.SleepArgs(0))
	if !errors.Is(err, rmi.ErrOverloaded) {
		t.Fatalf("overflow call = %v, want ErrOverloaded", err)
	}
	if errors.Is(err, rmi.ErrDraining) {
		t.Fatalf("overload masked as draining on a live server: %v", err)
	}
	if hint, ok := rmi.RetryAfter(err); !ok || hint <= 0 {
		t.Fatalf("shed without usable retry-after hint: %v (hint %v ok %v)", err, hint, ok)
	}

	// High-priority traffic is not behind the saturated class: direct
	// pings answer, and a tight heartbeat never declares the machine down.
	hb := cl.Client.StartHeartbeat(rmi.HeartbeatConfig{
		Interval: 50 * time.Millisecond,
		Timeout:  time.Second,
		Misses:   2,
	})
	defer hb.Stop()
	for i := 0; i < 5; i++ {
		if err := sess.Ping(ctx, 1); err != nil {
			t.Fatalf("ping %d during saturation: %v", i, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	if down := downMachines(cl); len(down) != 0 {
		t.Fatalf("heartbeat declared %v down while only the normal class was full", down)
	}

	// A PrioHigh call is admitted too — it opens the gate, and every
	// parked call completes: admission shed the overflow, not the work.
	if err := sess.CallAsync(ctx, ref, "open", nil, rmi.WithPriority(rmi.PrioHigh)).Err(ctx); err != nil {
		t.Fatalf("high-priority open into saturated server: %v", err)
	}
	for i, f := range futs {
		if err := f.Err(ctx); err != nil {
			t.Fatalf("parked call %d lost: %v", i, err)
		}
	}
	if err := sess.Delete(ctx, ref); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

// TestDrainOverloadPrecedenceOverTCP pins the error-precedence contract
// across processes: a saturated live server says ErrOverloaded; once
// SIGTERM puts it into drain, new calls say ErrDraining (draining wins,
// overload never masks it); the queued work still completes across the
// shutdown and the process exits 0 (asserted by Stop's cleanup).
func TestDrainOverloadPrecedenceOverTCP(t *testing.T) {
	const normalCap = 4
	cl := StartCluster(t, 2, AdmitEnv+"=0,4,0")
	ctx := testCtx(t)
	p := servingPool(t, cl, 1)
	sess := p.Session(rmi.WithTimeout(30 * time.Second))

	ref, err := sess.New(ctx, 1, serve.ClassWork, nil)
	if err != nil {
		t.Fatalf("new Work: %v", err)
	}
	// Fill the class with finite work (4 x 700ms, serial): all four are
	// admitted at dispatch, execute one by one, and leave the drain
	// budget plenty of headroom.
	var futs []*rmi.Future
	for i := 0; i < normalCap; i++ {
		futs = append(futs, sess.CallAsync(ctx, ref, "sleep", serve.SleepArgs(700_000)))
	}
	// Saturated and live: the shed is an overload, not a drain refusal.
	_, err = sess.Call(ctx, ref, "sleep", serve.SleepArgs(0))
	if !errors.Is(err, rmi.ErrOverloaded) {
		t.Fatalf("overflow on live server = %v, want ErrOverloaded", err)
	}

	// SIGTERM the machine mid-saturation and probe until drain mode is
	// visible. Every probe must fail typed — overloaded until the signal
	// lands, draining after — and once draining, overload never reappears.
	cl.Term(1)
	deadline := time.Now().Add(5 * time.Second)
	var drainErr error
	for drainErr == nil {
		if time.Now().After(deadline) {
			t.Fatal("server never reported ErrDraining after SIGTERM")
		}
		_, err := sess.Call(ctx, ref, "sleep", serve.SleepArgs(0))
		switch {
		case errors.Is(err, rmi.ErrDraining):
			drainErr = err
		case errors.Is(err, rmi.ErrOverloaded):
			time.Sleep(10 * time.Millisecond) // signal not delivered yet
		default:
			t.Fatalf("probe during shutdown = %v, want ErrOverloaded or ErrDraining", err)
		}
	}
	if errors.Is(drainErr, rmi.ErrOverloaded) {
		t.Fatalf("draining error also matches ErrOverloaded (masking): %v", drainErr)
	}

	// The admitted work survives the drain: all four sleeps complete and
	// their replies cross the dying connection.
	for i, f := range futs {
		if err := f.Err(ctx); err != nil {
			t.Fatalf("admitted call %d lost across drain: %v", i, err)
		}
	}
	// Cleanup's Stop asserts machine 1 (and 0) exit 0 — a drain that
	// timed out or leaked work would fail the test there.
}
