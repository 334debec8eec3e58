package serve

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"strings"
	"testing"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/rmi"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

var bg = context.Background()

func newCluster(t *testing.T, cfg rmi.AdmissionConfig) (*transport.Inproc, *rmi.Server) {
	t.Helper()
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := rmi.NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatalf("server: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.SetAdmission(cfg)
	return tr, srv
}

func newPool(t *testing.T, tr *transport.Inproc, srv *rmi.Server, conns int) *Pool {
	t.Helper()
	p, err := NewPool(PoolConfig{Transport: tr, Directory: rmi.StaticDirectory{srv.Addr()}, Conns: conns})
	if err != nil {
		t.Fatalf("pool: %v", err)
	}
	t.Cleanup(func() { p.Close() })
	return p
}

// TestWorkEcho pins the workload class basics through a Session.
func TestWorkEcho(t *testing.T) {
	tr, srv := newCluster(t, rmi.AdmissionConfig{})
	p := newPool(t, tr, srv, 2)
	sess := p.Session()
	ref, err := sess.New(bg, 0, ClassWork, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	payload := []byte("front door")
	d, err := sess.Call(bg, ref, "echo", EchoArgs(payload))
	if err != nil {
		t.Fatalf("echo: %v", err)
	}
	got := d.BytesCopy()
	d.Release()
	if !bytes.Equal(got, payload) {
		t.Fatalf("echo = %q, want %q", got, payload)
	}
	if err := sess.Delete(bg, ref); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

// TestPoolSpreadsLoad pins the in-flight-aware pick: with the mailbox
// gated, a burst of calls through one machine must land on every pooled
// connection rather than herding onto one socket. The burst is issued
// only once the gating wait is seen EXECUTING: admitted is not enough, a
// sleep(0) on another connection can overtake it into the mailbox, finish,
// and leave the pool one call short of the count asserted below.
func TestPoolSpreadsLoad(t *testing.T) {
	const conns, calls = 4, 64
	tr, srv := newCluster(t, rmi.AdmissionConfig{})
	p := newPool(t, tr, srv, conns)
	sess := p.Session()
	ref, err := sess.New(bg, 0, ClassWork, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	var futs []*rmi.Future
	futs = append(futs, sess.CallAsync(bg, ref, "wait", nil))
	obj, ok := srv.Object(ref.Object)
	if !ok {
		t.Fatalf("no object behind %v", ref)
	}
	select {
	case <-obj.(*Work).parked:
	case <-time.After(10 * time.Second):
		t.Fatal("the gating wait call never started executing")
	}
	for i := 1; i < calls; i++ {
		futs = append(futs, sess.CallAsync(bg, ref, "sleep", SleepArgs(0)))
	}
	if got := p.InFlight(); got != calls {
		t.Fatalf("pool in-flight = %d, want %d", got, calls)
	}
	// Every connection carries a fair share: strictly more than zero, and
	// no connection more than half the burst (perfect balance would be
	// calls/conns each).
	for i, c := range p.clients {
		load := c.InFlightTo(0)
		if load == 0 {
			t.Fatalf("client %d idle during burst (no spread)", i)
		}
		if load > calls/2 {
			t.Fatalf("client %d carries %d of %d calls (herding)", i, load, calls)
		}
	}
	if err := sess.CallAsync(bg, ref, "open", nil, rmi.WithPriority(rmi.PrioHigh)).Err(bg); err != nil {
		t.Fatalf("open: %v", err)
	}
	for i, f := range futs {
		if err := f.Err(bg); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if got := p.InFlight(); got != 0 {
		t.Fatalf("pool in-flight after drain = %d, want 0", got)
	}
}

// TestClientForPastTheRotorsSignBit picks from a 4-client pool whose
// rotor has passed 2^63: read as a signed int, the rotor would start the
// scan at a negative index.
func TestClientForPastTheRotorsSignBit(t *testing.T) {
	tr, srv := newCluster(t, rmi.AdmissionConfig{})
	p := newPool(t, tr, srv, 4)
	p.rotor.Store(1 << 63)
	for i := 0; i < 8; i++ {
		c := p.ClientFor(0)
		if !slices.Contains(p.clients, c) {
			t.Fatalf("pick %d: a client outside the pool", i)
		}
	}
}

// TestSessionPriorityDefaults proves a session's default CallOptions
// reach the wire: a bulk-class session saturates the bulk budget while
// the normal class stays open, and a per-call override wins over the
// session default.
func TestSessionPriorityDefaults(t *testing.T) {
	const bulkCap = 2
	tr, srv := newCluster(t, rmi.AdmissionConfig{
		Capacity: [rmi.NumPriorities]int{rmi.PrioBulk: bulkCap},
	})
	p := newPool(t, tr, srv, 1) // one conn: FIFO makes admission order exact
	bulk := p.Session(rmi.WithPriority(rmi.PrioBulk))
	ref, err := p.Session().New(bg, 0, ClassWork, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	futs := []*rmi.Future{bulk.CallAsync(bg, ref, "wait", nil)}
	for i := 1; i < bulkCap; i++ {
		futs = append(futs, bulk.CallAsync(bg, ref, "sleep", SleepArgs(0)))
	}
	// Bulk budget exhausted: the session's next call sheds...
	if _, err := bulk.Call(bg, ref, "sleep", SleepArgs(0)); !errors.Is(err, rmi.ErrOverloaded) {
		t.Fatalf("bulk call into full class: got %v, want ErrOverloaded", err)
	}
	// ...but a per-call priority override on the same session is admitted.
	futs = append(futs, bulk.CallAsync(bg, ref, "sleep", SleepArgs(0), rmi.WithPriority(rmi.PrioNormal)))
	if err := bulk.CallAsync(bg, ref, "open", nil, rmi.WithPriority(rmi.PrioHigh)).Err(bg); err != nil {
		t.Fatalf("open: %v", err)
	}
	for i, f := range futs {
		if err := f.Err(bg); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

// TestOpenLoop pins the generator's bookkeeping: outcome classification,
// separated latency histograms, and the offered count.
func TestOpenLoop(t *testing.T) {
	const normalCap = 8
	tr, srv := newCluster(t, rmi.AdmissionConfig{
		Capacity: [rmi.NumPriorities]int{rmi.PrioNormal: normalCap},
	})
	p := newPool(t, tr, srv, 2)
	sess := p.Session(rmi.WithTimeout(10 * time.Second))
	ref, err := sess.New(bg, 0, ClassWork, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Service time 2ms serial → capacity ~500/s; offer 4x that so the
	// run must shed. The admitted queue bounds latency; sheds fail fast.
	res := OpenLoop(LoadConfig{
		Rate:  2000,
		Count: 300,
		Call: func(i int) error {
			d, err := sess.Call(bg, ref, "sleep", SleepArgs(2000))
			if err == nil {
				d.Release()
			}
			return err
		},
	})
	if res.Offered != 300 || res.OK+res.Shed+res.Failed != res.Offered {
		t.Fatalf("accounting: offered %d ok %d shed %d failed %d", res.Offered, res.OK, res.Shed, res.Failed)
	}
	if res.Failed != 0 {
		t.Fatalf("non-typed failures: %d (first: %v)", res.Failed, res.FirstError)
	}
	if res.Shed == 0 {
		t.Fatal("4x overload produced no sheds")
	}
	if res.OK == 0 {
		t.Fatal("no successes under overload (goodput collapsed)")
	}
	if int64(res.OK) != res.Latency.Count() || int64(res.Shed) != res.Reject.Count() {
		t.Fatalf("histogram counts diverge from outcome counts")
	}
	if res.Goodput() <= 0 {
		t.Fatal("no goodput")
	}
}

// TestOpenLoopTimesFromDueInstant: a generator that cannot keep up — two
// thousand arrivals due within two microseconds, each call a 1 ms sleep —
// must count the time it owed a request in that request's latency. The
// last call to finish was due at the start, so the largest latency is
// about the whole run, not one call's millisecond.
func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	res := OpenLoop(LoadConfig{
		Rate:  1e9,
		Count: 2000,
		Call: func(int) error {
			time.Sleep(time.Millisecond)
			return nil
		},
	})
	if res.OK != 2000 {
		t.Fatalf("ok %d of 2000", res.OK)
	}
	if maxUs, runUs := res.Latency.MaxUs(), res.Elapsed.Microseconds(); float64(maxUs) < 0.9*float64(runUs) {
		t.Fatalf("largest latency %d µs of a %d µs run: the generator's lag is missing from it", maxUs, runUs)
	}
}

// TestRefusedBindKeepsPeer sends bind a truncated ref: the request is
// refused before the body runs, so the peer bound before stays bound and
// the next relay goes through it.
func TestRefusedBindKeepsPeer(t *testing.T) {
	cl, err := cluster.NewLocal(2, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	c := cl.Client()
	w0, err := c.New(bg, 0, ClassWork, nil)
	if err != nil {
		t.Fatalf("new work on 0: %v", err)
	}
	w1, err := c.New(bg, 1, ClassWork, nil)
	if err != nil {
		t.Fatalf("new work on 1: %v", err)
	}
	if _, err := WorkBind.Call(bg, c, w0, w1); err != nil {
		t.Fatalf("bind: %v", err)
	}
	// The ref's machine and object, without its class.
	d, err := c.Call(bg, w0, WorkBind.Name(), func(e *wire.Encoder) error {
		e.PutInt(w1.Machine)
		e.PutUvarint(w1.Object)
		return nil
	})
	d.Release()
	if err == nil || !strings.Contains(err.Error(), wire.ErrTruncated.Error()) {
		t.Fatalf("bind of a truncated ref: %v, want %v", err, wire.ErrTruncated)
	}
	payload := []byte("still bound")
	d, err = c.Call(bg, w0, WorkRelay.Name(), EchoArgs(payload))
	if err != nil {
		t.Fatalf("relay after the refused bind: %v", err)
	}
	got := d.BytesCopy()
	d.Release()
	if !bytes.Equal(got, payload) {
		t.Fatalf("relay = %q, want %q", got, payload)
	}
}
