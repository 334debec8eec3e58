package rmi

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/transport"
	"oopp/internal/wire"
)

// TestReconnectAfterServerRestart pins the tentpole reconnect behavior:
// a connection dropped by a server restart must not strand the machine —
// the dead connection is evicted and the next operation redials.
func TestReconnectAfterServerRestart(t *testing.T) {
	tr := transport.TCP{}
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	addr := srv.Addr()
	c := NewClient(tr, StaticDirectory{addr})
	defer c.Close()
	if err := c.Ping(bg, 0); err != nil {
		t.Fatalf("first ping: %v", err)
	}

	srv.Close()
	// The dead server surfaces as a typed machine-down failure (either the
	// receive loop noticing the closed socket, or a refused redial).
	err = c.Ping(bg, 0, WithTimeout(2*time.Second))
	if err == nil {
		t.Fatal("ping of closed server succeeded")
	}
	if !errors.Is(err, ErrMachineDown) && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ping after close: %v, want ErrMachineDown (or deadline)", err)
	}

	srv2, err := NewServer(0, tr, addr, nil)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	// Same client, no intervention: the eviction makes this redial.
	if err := c.Ping(bg, 0, WithRetryDial(20)); err != nil {
		t.Fatalf("ping after restart: %v", err)
	}
}

// TestDialFailureIsTypedMachineDown checks that exhausting the dial
// budget produces a *MachineDownError matching the sentinel.
func TestDialFailureIsTypedMachineDown(t *testing.T) {
	tr := transport.TCP{}
	l, err := tr.Listen("")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := l.Addr()
	l.Close()

	c := NewClient(tr, StaticDirectory{addr})
	defer c.Close()
	err = c.Ping(bg, 0)
	if !errors.Is(err, ErrMachineDown) {
		t.Fatalf("dial failure: %v, want ErrMachineDown", err)
	}
	var down *MachineDownError
	if !errors.As(err, &down) || down.Machine != 0 {
		t.Fatalf("dial failure carries %+v, want MachineDownError{Machine: 0}", err)
	}
	eachForm(t, bg, c, Ref{Machine: 0, Object: 1, Class: "test.Counter"}, "get", nil, nil, func(form string, err error) {
		var down *MachineDownError
		if !errors.Is(err, ErrMachineDown) || !errors.As(err, &down) || down.Machine != 0 {
			t.Fatalf("%s: dial failure %v, want a *MachineDownError for machine 0", form, err)
		}
	})
}

// blocker is the object of test.DrainWedge and test.DrainSlow2: its method
// waits on the channel that the test about to construct it put in
// nextBlock. The classes are registered once a process — the registry
// refuses a second time, and -count=2 runs a test twice — the channel is
// each run's own.
type blocker struct{ block chan struct{} }

var nextBlock = make(chan chan struct{}, 1) // one hand-off, test to constructor

func newBlocker(env *Env, args *wire.Decoder) (any, error) {
	return &blocker{block: <-nextBlock}, nil
}

var registerDrainClasses = sync.OnceFunc(func() {
	Register("test.DrainSlow", func(env *Env, args *wire.Decoder) (any, error) {
		return &struct{}{}, nil
	}).Method("slow", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		time.Sleep(150 * time.Millisecond)
		reply.PutUvarint(42)
		return nil
	})
	Register("test.DrainWedge", newBlocker).Method("wedge", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		<-obj.(*blocker).block
		return nil
	})
	Register("test.DrainSlow2", newBlocker).Method("slow", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		<-obj.(*blocker).block
		reply.PutUvarint(7)
		return nil
	})
})

// TestDrainFinishesInFlightAndRejectsNew exercises graceful drain: a
// call already executing completes and delivers its reply, while work
// arriving after Drain is refused with the typed ErrDraining.
func TestDrainFinishesInFlightAndRejectsNew(t *testing.T) {
	registerDrainClasses()

	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c, srv := nodes[0].client, nodes[0].server

	ref, err := c.New(bg, 0, "test.DrainSlow", nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}

	fut := c.CallAsync(bg, ref, "slow", nil)
	time.Sleep(20 * time.Millisecond) // let the call reach the server

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(bg, 5*time.Second)
		defer cancel()
		drained <- srv.Drain(ctx)
	}()

	// Give Drain a moment to flip the mode, then poke it from outside.
	time.Sleep(20 * time.Millisecond)
	if !srv.Draining() {
		t.Fatal("server not draining")
	}
	if _, err := c.Call(bg, ref, "slow", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("call during drain: %v, want ErrDraining", err)
	}
	if _, err := c.New(bg, 0, "test.DrainSlow", nil); !errors.Is(err, ErrDraining) {
		t.Fatalf("new during drain: %v, want ErrDraining", err)
	}
	if err := c.Ping(bg, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("ping during drain: %v, want ErrDraining", err)
	}

	// The in-flight call still completes and returns its result.
	d, err := fut.Wait(bg)
	if err != nil {
		t.Fatalf("in-flight call failed across drain: %v", err)
	}
	if got := d.Uvarint(); got != 42 {
		t.Fatalf("in-flight result = %d, want 42", got)
	}
	fut.Release()

	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	// Stats stay readable during/after drain (monitoring path).
	if _, _, err := c.Stat(bg, 0); err != nil {
		t.Fatalf("stat after drain: %v", err)
	}
}

// TestDrainBoundedByContext: a method wedged forever must not wedge
// Drain past its context.
func TestDrainBoundedByContext(t *testing.T) {
	registerDrainClasses()
	block := make(chan struct{})
	nextBlock <- block

	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	defer close(block)
	c, srv := nodes[0].client, nodes[0].server

	ref, err := c.New(bg, 0, "test.DrainWedge", nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	fut := c.CallAsync(bg, ref, "wedge", nil)
	time.Sleep(20 * time.Millisecond)

	ctx, cancel := context.WithTimeout(bg, 100*time.Millisecond)
	defer cancel()
	if err := srv.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain of wedged server: %v, want DeadlineExceeded", err)
	}
	_ = fut // resolved by stop() closing the server
}

// TestHeartbeatDetectsFailureAndRecovery runs the full detector cycle
// over real sockets: up -> killed (down, typed fast-fail) -> restarted
// (up again, traffic resumes).
func TestHeartbeatDetectsFailureAndRecovery(t *testing.T) {
	tr := transport.TCP{}
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	addr := srv.Addr()
	c := NewClient(tr, StaticDirectory{addr})
	defer c.Close()
	if err := c.Ping(bg, 0); err != nil {
		t.Fatalf("ping: %v", err)
	}

	var downs, ups atomic.Int64
	hb := c.StartHeartbeat(HeartbeatConfig{
		Interval: 25 * time.Millisecond,
		Timeout:  200 * time.Millisecond,
		Misses:   2,
		OnDown:   func(int, error) { downs.Add(1) },
		OnUp:     func(int) { ups.Add(1) },
	})
	defer hb.Stop()

	srv.Close()
	waitFor(t, 5*time.Second, func() bool { return c.MachineDown(0) != nil })
	if err := c.MachineDown(0); !errors.Is(err, ErrMachineDown) {
		t.Fatalf("client.MachineDown = %v, want ErrMachineDown", err)
	}
	// Non-probe traffic fails fast with the typed error — no timeout burn.
	start := time.Now()
	if err := c.Ping(bg, 0); !errors.Is(err, ErrMachineDown) {
		t.Fatalf("ping of down machine: %v, want ErrMachineDown", err)
	}
	eachForm(t, bg, c, Ref{Machine: 0, Object: 1, Class: "test.Counter"}, "get", nil, nil, func(form string, err error) {
		if !errors.Is(err, ErrMachineDown) {
			t.Fatalf("%s to a down machine: %v, want ErrMachineDown", form, err)
		}
	})
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("down-machine ping and calls took %v, want fast fail", elapsed)
	}

	srv2, err := NewServer(0, tr, addr, nil)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer srv2.Close()
	waitFor(t, 5*time.Second, func() bool { return c.MachineDown(0) == nil })
	if err := c.Ping(bg, 0, WithRetryDial(20)); err != nil {
		t.Fatalf("ping after recovery: %v", err)
	}
	if downs.Load() == 0 || ups.Load() == 0 {
		t.Fatalf("callbacks: downs=%d ups=%d, want both > 0", downs.Load(), ups.Load())
	}
}

// TestHeartbeatSeesDrainingMachine: a draining server answers pings with
// ErrDraining, so detectors count it as failing (it is leaving) and new
// work is diverted — but the connection stays open, so a call the server
// accepted before the drain still delivers its result after the verdict.
func TestHeartbeatSeesDrainingMachine(t *testing.T) {
	registerDrainClasses()
	block := make(chan struct{})
	nextBlock <- block
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 1)
	defer stop()
	c, srv := nodes[0].client, nodes[0].server

	ref, err := c.New(bg, 0, "test.DrainSlow2", nil)
	if err != nil {
		t.Fatalf("new: %v", err)
	}
	fut := c.CallAsync(bg, ref, "slow", nil)
	time.Sleep(20 * time.Millisecond) // in flight before the drain starts

	go func() {
		ctx, cancel := context.WithTimeout(bg, 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()
	waitFor(t, 5*time.Second, func() bool { return srv.Draining() })

	hb := c.StartHeartbeat(HeartbeatConfig{Interval: 20 * time.Millisecond, Misses: 2})
	defer hb.Stop()
	waitFor(t, 5*time.Second, func() bool { return c.MachineDown(0) != nil })

	// Verdict is in; the in-flight call must still complete — a drain is
	// an orderly departure, not a crash, so pending calls are not severed.
	close(block)
	d, err := fut.Wait(bg)
	if err != nil {
		t.Fatalf("in-flight call severed by drain verdict: %v", err)
	}
	if got := d.Uvarint(); got != 7 {
		t.Fatalf("in-flight result = %d, want 7", got)
	}
	fut.Release()
	// New work is still refused, typed: over the still-open connection
	// the server itself answers ErrDraining (authoritative); once the
	// link dies the client's cached ErrMachineDown verdict takes over.
	if err := c.Ping(bg, 0); !errors.Is(err, ErrDraining) && !errors.Is(err, ErrMachineDown) {
		t.Fatalf("new work on draining machine: %v, want ErrDraining or ErrMachineDown", err)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// TestIdleConnectionHealsOnTheNextCall: a server that restarts while the
// client's connection sits idle after a synchronous call — a connection
// nobody reads then — is redialed by the next synchronous call, which has
// no timeout and succeeds: the call looks whether the peer closed the
// connection before it sends on it.
func TestIdleConnectionHealsOnTheNextCall(t *testing.T) {
	for _, tr := range []transport.Transport{transport.TCP{}, transport.NewInproc(transport.LinkModel{})} {
		srv, err := NewServer(0, tr, "", nil)
		if err != nil {
			t.Fatalf("server: %v", err)
		}
		addr := srv.Addr()
		c := NewClient(tr, StaticDirectory{addr})
		defer c.Close()
		ref, err := srv.AddObject("test.Echo", &echo{})
		if err != nil {
			t.Fatal(err)
		}
		for range 2 { // the second reads its own reply, and nobody reads after it
			d, err := c.Call(bg, ref, methodPing, nil)
			d.Release()
			if err != nil {
				t.Fatalf("%T: call before the restart: %v", tr, err)
			}
		}
		srv.Close()
		srv2, err := NewServer(0, tr, addr, nil)
		if err != nil {
			t.Skipf("could not rebind %s: %v", addr, err)
		}
		defer srv2.Close()
		if ref, err = srv2.AddObject("test.Echo", &echo{}); err != nil {
			t.Fatal(err)
		}
		d, err := c.Call(bg, ref, methodPing, nil)
		d.Release()
		if err != nil {
			t.Errorf("%T: the first call after the restart: %v, want it to redial and succeed", tr, err)
		}
	}
}
