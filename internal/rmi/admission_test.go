package rmi

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/trace"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// gateClass is a minimal blocking workload for admission tests: "hold"
// parks the object's mailbox until "release" (concurrent) is called, so
// later serial calls pile up as in-flight work of their priority class.
type gateObj struct {
	gate chan struct{}
	once sync.Once
}

func (g *gateObj) release() { g.once.Do(func() { close(g.gate) }) }

var registerGateOnce sync.Once

func registerGate() {
	registerGateOnce.Do(func() {
		Register("test.Gate", func(env *Env, args *wire.Decoder) (any, error) {
			return &gateObj{gate: make(chan struct{})}, nil
		}).
			Method("hold", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				<-obj.(*gateObj).gate
				return nil
			}).
			Method("noop", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				return nil
			}).
			ConcurrentMethod("release", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
				obj.(*gateObj).release()
				return nil
			})
	})
}

// newGateServer boots a server with the given admission caps, a client,
// and one gate object.
func newGateServer(t *testing.T, cfg AdmissionConfig) (*Server, *Client, Ref) {
	t.Helper()
	registerGate()
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetAdmission(cfg)
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	t.Cleanup(func() { c.Close() })
	ref, err := c.New(bg, 0, "test.Gate", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return srv, c, ref
}

// saturate fills the normal class to exactly cap in-flight calls: one
// "hold" parking the mailbox plus cap-1 queued noops. The returned
// futures complete once the gate is released.
func saturate(t *testing.T, c *Client, ref Ref, cap int) []*Future {
	t.Helper()
	futs := make([]*Future, 0, cap)
	futs = append(futs, c.CallAsync(bg, ref, "hold", nil))
	for i := 1; i < cap; i++ {
		futs = append(futs, c.CallAsync(bg, ref, "noop", nil))
	}
	// The sends above are asynchronous; wait until the server has
	// admitted all of them before poking at the budget's edge.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d := c.InFlightTo(ref.Machine); d >= cap {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saturation never reached: in-flight %d, want %d", c.InFlightTo(ref.Machine), cap)
		}
		time.Sleep(time.Millisecond)
	}
	return futs
}

func release(t *testing.T, c *Client, ref Ref, futs []*Future) {
	t.Helper()
	if err := c.CallAsync(bg, ref, "release", nil, WithPriority(PrioHigh)).Err(bg); err != nil {
		t.Fatalf("release: %v", err)
	}
	for i, f := range futs {
		if err := f.Err(bg); err != nil {
			t.Fatalf("held call %d: %v", i, err)
		}
	}
}

// TestAdmissionShedsTyped pins the overload contract: a saturated class
// sheds with errors.Is(err, ErrOverloaded), the rejection carries a
// parseable retry hint across the wire, and draining it is not.
func TestAdmissionShedsTyped(t *testing.T) {
	const cap = 3
	srv, c, ref := newGateServer(t, AdmissionConfig{Capacity: [NumPriorities]int{PrioNormal: cap}})

	futs := saturate(t, c, ref, cap)
	_, err := c.Call(bg, ref, "noop", nil, WithTimeout(5*time.Second))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("call into full class: got %v, want ErrOverloaded", err)
	}
	if errors.Is(err, ErrDraining) {
		t.Fatalf("overload rejection also matches ErrDraining: %v", err)
	}
	if d, ok := RetryAfter(err); !ok || d <= 0 {
		t.Fatalf("RetryAfter(%v) = %v, %v; want a positive hint", err, d, ok)
	}
	if got := srv.QueueDepths()[PrioNormal]; got != cap {
		t.Fatalf("normal queue depth = %d, want %d", got, cap)
	}

	// The control plane is never behind the data-plane budget.
	if err := c.Ping(bg, 0); err != nil {
		t.Fatalf("ping while saturated: %v", err)
	}
	// Neither is a separate priority class.
	if _, err := c.Call(bg, ref, "release", nil, WithPriority(PrioHigh)); err != nil {
		t.Fatalf("high-priority call while normal class full: %v", err)
	}
	for i, f := range futs {
		if err := f.Err(bg); err != nil {
			t.Fatalf("held call %d: %v", i, err)
		}
	}
	// The server releases each work token just after the reply leaves,
	// so the depth gauge trails the futures by an instant.
	waitUntil(t, func() bool { return srv.QueueDepths()[PrioNormal] == 0 })
}

// TestDrainOverloadPrecedence pins the non-masking rule from both sides:
// a saturated live server says ErrOverloaded, a draining server says
// ErrDraining even when it is also saturated, and releasing the queue
// lets the drain finish with every admitted call answered.
func TestDrainOverloadPrecedence(t *testing.T) {
	const cap = 2
	srv, c, ref := newGateServer(t, AdmissionConfig{Capacity: [NumPriorities]int{PrioNormal: cap}})

	futs := saturate(t, c, ref, cap)

	// Saturated, not draining: ErrOverloaded.
	_, err := c.Call(bg, ref, "noop", nil)
	if !errors.Is(err, ErrOverloaded) || errors.Is(err, ErrDraining) {
		t.Fatalf("saturated live server: got %v, want ErrOverloaded only", err)
	}

	drainCtx, cancel := context.WithTimeout(bg, 10*time.Second)
	defer cancel()
	drainDone := make(chan error, 1)
	go func() { drainDone <- srv.Drain(drainCtx) }()
	waitUntil(t, srv.Draining)

	// Draining AND saturated: ErrDraining wins, never ErrOverloaded.
	_, err = c.Call(bg, ref, "noop", nil)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("draining saturated server: got %v, want ErrDraining", err)
	}
	if errors.Is(err, ErrOverloaded) {
		t.Fatalf("draining rejection also matches ErrOverloaded: %v", err)
	}

	// Release the gate server-side (a draining server refuses even the
	// remote release): the admitted calls complete, the drain finishes —
	// proof that work admitted before the drain is answered, not shed.
	obj, ok := srv.Object(ref.Object)
	if !ok {
		t.Fatal("gate object vanished")
	}
	obj.(*gateObj).release()
	for i, f := range futs {
		if err := f.Err(bg); err != nil {
			t.Fatalf("held call %d after drain: %v", i, err)
		}
	}
	if err := <-drainDone; err != nil {
		t.Fatalf("drain: %v", err)
	}

	// Still draining after the queue emptied: rejections stay ErrDraining
	// (an empty queue must not flip the verdict back to overload).
	_, err = c.Call(bg, ref, "noop", nil)
	if !errors.Is(err, ErrDraining) || errors.Is(err, ErrOverloaded) {
		t.Fatalf("drained idle server: got %v, want ErrDraining only", err)
	}
}

func waitUntil(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRetryAfterExtraction covers the hint parser on every error shape
// it may meet: local, remote, wrapped remote, and unrelated errors.
func TestRetryAfterExtraction(t *testing.T) {
	local := &OverloadedError{Machine: 3, Priority: PrioBulk, Queued: 7, RetryAfter: 1500 * time.Microsecond}
	if d, ok := RetryAfter(local); !ok || d != 1500*time.Microsecond {
		t.Fatalf("local: %v %v", d, ok)
	}
	remote := &RemoteError{Machine: 3, Msg: local.Error()}
	if d, ok := RetryAfter(remote); !ok || d != 1500*time.Microsecond {
		t.Fatalf("remote: %v %v", d, ok)
	}
	if !errors.Is(remote, ErrOverloaded) {
		t.Fatal("remote overload text does not match sentinel")
	}
	wrapped := &RemoteError{Machine: 1, Msg: "outer: " + local.Error() + ")"}
	if d, ok := RetryAfter(wrapped); !ok || d != 1500*time.Microsecond {
		t.Fatalf("wrapped: %v %v", d, ok)
	}
	if _, ok := RetryAfter(errors.New("unrelated")); ok {
		t.Fatal("unrelated error produced a retry hint")
	}
	if _, ok := RetryAfter(&RemoteError{Msg: "rmi: machine overloaded but mangled"}); ok {
		t.Fatal("mangled overload text produced a retry hint")
	}
}

// TestGroupedRequestsKeepTheirClass: the frames of a collective carry the
// reply-group mark in the lead byte beside their class, and the mark
// changes no class — with the normal budget spent, a PrioHigh fan-out
// over members of one machine is admitted whole, and DeleteRefs deletes.
func TestGroupedRequestsKeepTheirClass(t *testing.T) {
	srv, c, gate := newGateServer(t, AdmissionConfig{})
	refs, err := SpawnRefs(bg, c, make([]int, 4), "test.Echo", nil, DefaultWindow)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	srv.SetAdmission(AdmissionConfig{Capacity: [NumPriorities]int{PrioNormal: 1}})
	futs := saturate(t, c, gate, 1)
	if _, err := c.Call(bg, refs[0], "echo", nil); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("a normal call with the budget spent: %v, want ErrOverloaded", err)
	}
	args := func(_ int, e *wire.Encoder) error { e.PutBytes(nil); return nil }
	if err := FanOut(bg, c, refs, "echo", args, nil, DefaultWindow, WithPriority(PrioHigh)); err != nil {
		t.Errorf("a PrioHigh fan-out with the normal budget spent: %v", err)
	}
	if err := DeleteRefs(bg, c, refs, DefaultWindow); err != nil {
		t.Errorf("DeleteRefs with the normal budget spent: %v", err)
	}
	if n := srv.NumObjects(); n != 1 {
		t.Errorf("%d objects live after DeleteRefs, want the gate alone", n)
	}
	release(t, c, gate, futs)
}

// unbounded disables admission control: a negative cap on every class.
func unbounded() AdmissionConfig {
	var a AdmissionConfig
	for p := range a.Capacity {
		a.Capacity[p] = -1
	}
	return a
}

// TestAdmissionUnbounded pins the escape hatch: negative caps restore
// the pre-admission behaviour.
func TestAdmissionUnbounded(t *testing.T) {
	_, c, ref := newGateServer(t, unbounded())
	futs := saturate(t, c, ref, 64)
	if _, err := c.Call(bg, ref, "release", nil); err != nil {
		t.Fatalf("release: %v", err)
	}
	for i, f := range futs {
		if err := f.Err(bg); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestHeartbeatSurvivesBulkSaturation extends the PR 4 failure-detector
// suite with the PR 6 guarantee: probes ride PrioHigh and bypass the
// saturated bulk/normal budgets, so a machine drowning in bulk work is
// slow, not dead — the detector must not declare ErrMachineDown.
func TestHeartbeatSurvivesBulkSaturation(t *testing.T) {
	const cap = 4
	_, c, ref := newGateServer(t, AdmissionConfig{
		Capacity: [NumPriorities]int{PrioNormal: cap, PrioBulk: cap},
	})

	// Saturate BOTH data-plane classes: a parked mailbox with the normal
	// budget queued behind it, then the whole bulk budget queued too.
	futs := saturate(t, c, ref, cap)
	for i := 0; i < cap; i++ {
		futs = append(futs, c.CallAsync(bg, ref, "noop", nil, WithPriority(PrioBulk)))
	}
	waitUntil(t, func() bool { return c.InFlightTo(0) >= 2*cap })

	// Bulk is full: one more bulk call sheds instantly (and types).
	_, err := c.Call(bg, ref, "noop", nil, WithPriority(PrioBulk))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("bulk call into full class: got %v, want ErrOverloaded", err)
	}

	// Run a tight failure detector through the saturation window. Every
	// probe must answer inside its timeout: pings are control plane.
	var downMu sync.Mutex
	var downs []error
	hb := c.StartHeartbeat(HeartbeatConfig{
		Interval: 10 * time.Millisecond,
		Timeout:  150 * time.Millisecond,
		Misses:   2,
		OnDown: func(m int, cause error) {
			downMu.Lock()
			downs = append(downs, cause)
			downMu.Unlock()
		},
	})
	time.Sleep(300 * time.Millisecond)
	hb.Stop()

	downMu.Lock()
	defer downMu.Unlock()
	if len(downs) > 0 {
		t.Fatalf("false failure verdict under bulk saturation: %v", downs[0])
	}
	if err := c.MachineDown(0); err != nil {
		t.Fatalf("machine 0 marked down: %v", err)
	}

	// Direct high-priority pings stay fast while both classes are full.
	for i := 0; i < 10; i++ {
		if err := c.Ping(bg, 0, WithTimeout(150*time.Millisecond)); err != nil {
			t.Fatalf("ping %d under saturation: %v", i, err)
		}
	}

	release(t, c, ref, futs)
}

// TestAdmissionDepthNeverExceedsCap: admission takes no lock, so 16
// callers, each on a connection of its own — which the server reads, and
// admits from, on a goroutine of its own — race each other for the last
// slots of the class, while a sampler reads the depth. The object is
// parked at first, so the class fills and sheds; once it is released,
// calls come and go around the cap. No sample may exceed the cap, every
// call is either admitted or shed, and the depth returns to zero.
func TestAdmissionDepthNeverExceedsCap(t *testing.T) {
	const (
		limit   = 8
		callers = 16
		calls   = 200
	)
	registerGate()
	tr := transport.NewInproc(transport.LinkModel{})
	nodes, stop := startCluster(t, tr, 1)
	defer stop()
	srv, c := nodes[0].server, nodes[0].client
	srv.SetAdmission(AdmissionConfig{Capacity: [NumPriorities]int{PrioNormal: limit}})
	ref, err := c.New(bg, 0, "test.Gate", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	hold := c.CallAsync(bg, ref, "hold", nil)
	waitUntil(t, func() bool { return srv.QueueDepths()[PrioNormal] == 1 })

	done := make(chan struct{})
	sampled := make(chan int)
	go func() {
		deepest := 0
		for {
			select {
			case <-done:
				sampled <- deepest
				return
			default:
			}
			deepest = max(deepest, srv.QueueDepths()[PrioNormal])
			runtime.Gosched()
		}
	}()

	var admitted, shed atomic.Int64
	var wg sync.WaitGroup
	for range callers {
		caller := NewClient(tr, StaticDirectory{srv.Addr()})
		defer caller.Close()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range calls {
				d, err := caller.Call(bg, ref, "noop", nil)
				d.Release()
				switch {
				case err == nil:
					admitted.Add(1)
				case errors.Is(err, ErrOverloaded):
					shed.Add(1)
				default:
					t.Errorf("call: %v", err)
				}
			}
		}()
	}
	// The callers parked behind the gate hold at most limit-1 slots; the
	// others shed until the gate opens.
	waitUntil(t, func() bool { return shed.Load() >= 100 })
	if err := c.CallAsync(bg, ref, "release", nil, WithPriority(PrioHigh)).Err(bg); err != nil {
		t.Fatalf("release: %v", err)
	}
	wg.Wait()
	if err := hold.Err(bg); err != nil {
		t.Fatalf("hold: %v", err)
	}
	close(done)
	if deepest := <-sampled; deepest > limit {
		t.Errorf("the normal class held %d requests at once, cap %d", deepest, limit)
	}
	if a, s := admitted.Load(), shed.Load(); a+s != callers*calls {
		t.Errorf("%d admitted + %d shed = %d, offered %d", a, s, a+s, callers*calls)
	}
	waitUntil(t, func() bool { return srv.QueueDepths() == [NumPriorities]int{} })
}

// TestDebugShedIsPerMachine: a machine's debug snapshot counts the
// requests its own admission shed, not the process's. Two machines share
// a process; only machine 0's bulk class is saturated.
func TestDebugShedIsPerMachine(t *testing.T) {
	const limit, overflow = 2, 5
	registerGate()
	nodes, stop := startCluster(t, transport.NewInproc(transport.LinkModel{}), 2)
	defer stop()
	c := nodes[0].client
	nodes[0].server.SetAdmission(AdmissionConfig{Capacity: [NumPriorities]int{PrioBulk: limit}})
	ref, err := c.New(bg, 0, "test.Gate", nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	futs := []*Future{c.CallAsync(bg, ref, "hold", nil, WithPriority(PrioBulk))}
	for range limit - 1 {
		futs = append(futs, c.CallAsync(bg, ref, "noop", nil, WithPriority(PrioBulk)))
	}
	waitUntil(t, func() bool { return nodes[0].server.QueueDepths()[PrioBulk] == limit })
	for range overflow {
		if _, err := c.Call(bg, ref, "noop", nil, WithPriority(PrioBulk)); !errors.Is(err, ErrOverloaded) {
			t.Fatalf("bulk call into a full class: %v, want ErrOverloaded", err)
		}
	}
	for m, want := range []int64{overflow, 0} {
		buf, err := c.Debug(bg, m)
		if err != nil {
			t.Fatalf("debug %d: %v", m, err)
		}
		var snap trace.Snapshot
		if err := json.Unmarshal(buf, &snap); err != nil {
			t.Fatalf("snapshot %d: %v", m, err)
		}
		if snap.Counters.ReqShed != want {
			t.Errorf("machine %d reports %d sheds, want %d", m, snap.Counters.ReqShed, want)
		}
	}
	release(t, c, ref, futs)
}
