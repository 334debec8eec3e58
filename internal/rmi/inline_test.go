package rmi

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/transport"
	"oopp/internal/wire"
)

// recorder logs the entries and exits of its one serial method, "rec", and
// counts the overlaps and the runs its reader ran (mailbox.lent).
type recorder struct {
	mb      *mailbox // its own, for telling an inline run
	inside  atomic.Bool
	overlap atomic.Int64
	inline  atomic.Int64
	mu      sync.Mutex
	log     []int // caller*1e6 + sequence, per entry
}

// relay calls echo at target through c, from inside its serial method,
// and notes whether that ran inline.
type relay struct {
	c      *Client
	target Ref
	mb     *mailbox
	inline atomic.Bool
}

func init() {
	Register("test.Recorder", func(env *Env, args *wire.Decoder) (any, error) {
		return &recorder{}, nil
	}).Method("rec", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		r := obj.(*recorder)
		if r.inside.Swap(true) {
			r.overlap.Add(1)
		}
		r.mb.mu.Lock()
		lent := r.mb.lent
		r.mb.mu.Unlock()
		if lent {
			r.inline.Add(1)
		}
		r.mu.Lock()
		r.log = append(r.log, args.Int())
		r.mu.Unlock()
		time.Sleep(10 * time.Microsecond)
		r.inside.Store(false)
		return nil
	})
	Register("test.Relay", func(env *Env, args *wire.Decoder) (any, error) {
		return nil, errors.New("installed by AddObject only")
	}).Method("relay", func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		r := obj.(*relay)
		r.mb.mu.Lock()
		r.inline.Store(r.mb.lent)
		r.mb.mu.Unlock()
		d, err := r.c.Call(bg, r.target, "echo", func(e *wire.Encoder) error { e.PutBytes(args.Bytes()); return nil })
		if err != nil {
			return err
		}
		reply.PutBytes(d.Bytes())
		err = d.Err()
		d.Release()
		return err
	})
}

// oneMachine is a server on machine 0 over inproc and a client to it.
func oneMachine(t *testing.T) (*Server, *Client) {
	srv, c, _ := oneMachineOver(t)
	return srv, c
}

// oneMachineOver is oneMachine and its transport.
func oneMachineOver(t *testing.T) (*Server, *Client, transport.Transport) {
	t.Helper()
	tr := transport.NewInproc(transport.LinkModel{})
	srv, err := NewServer(0, tr, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	c := NewClient(tr, StaticDirectory{srv.Addr()})
	t.Cleanup(func() { c.Close() })
	return srv, c, tr
}

// lentTurn reports whether the object's process has lent its turn to a
// reader: whether a method of it runs inline.
func lentTurn(srv *Server, id uint64) bool {
	entry, err := srv.lookup(id, false)
	if err != nil {
		return false
	}
	entry.mb.mu.Lock()
	defer entry.mb.mu.Unlock()
	return entry.mb.lent
}

// ownReader reports whether a caller holds the receive role of c's
// connection to machine m, reading its own reply.
func ownReader(c *Client, m int) bool {
	cc, ok := (*c.cached.Load())[m]
	if !ok {
		return false
	}
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.reader == ownReply
}

// pingSync makes one synchronous call at ref: the receive loop of its
// connection, which reads on after an asynchronous reply (New's), parks
// after it, and the next call there reads its own reply.
func pingSync(t *testing.T, c *Client, ref Ref) {
	t.Helper()
	d, err := c.Call(bg, ref, methodPing, nil)
	d.Release()
	if err != nil {
		t.Fatal(err)
	}
}

// TestInlineCallsKeepOrderAndTurns: one client's synchronous calls, waited
// and run on the reader whenever the object is idle, and another client's
// asynchronous bursts, queued in the mailbox, reach one object mixed
// together. Its method never overlaps itself, each caller's calls run in
// the order they were issued, and some ran inline.
func TestInlineCallsKeepOrderAndTurns(t *testing.T) {
	srv, a, tr := oneMachineOver(t)
	b := NewClient(tr, StaticDirectory{srv.Addr()})
	defer b.Close()
	rec := &recorder{}
	ref, err := srv.AddObject("test.Recorder", rec)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := srv.lookup(ref.Object, false)
	rec.mb = entry.mb
	arg := func(v int) ArgEncoder { return func(e *wire.Encoder) error { e.PutInt(v); return nil } }

	const calls = 200
	callFrom := func(from, to int) error {
		for i := from; i < to; i++ {
			d, err := a.Call(bg, ref, "rec", arg(1e6+i))
			d.Release()
			if err != nil {
				return err
			}
		}
		return nil
	}
	if err := callFrom(0, 20); err != nil { // alone: the object is idle for each
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		errs[0] = callFrom(20, calls)
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < calls && errs[1] == nil; i += 5 {
			futs := make([]*Future, 5)
			for k := range futs {
				futs[k] = b.CallAsync(bg, ref, "rec", arg(2e6+i+k))
			}
			errs[1] = WaitAll(bg, futs)
		}
	}()
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if n := rec.overlap.Load(); n != 0 {
		t.Errorf("the serial method overlapped itself %d times", n)
	}
	if rec.inline.Load() == 0 {
		t.Error("no call ran on the reader")
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.log) != 2*calls {
		t.Fatalf("%d runs, want %d", len(rec.log), 2*calls)
	}
	last := map[int]int{1: -1, 2: -1}
	for _, v := range rec.log {
		caller, seq := v/1e6, v%1e6
		if seq <= last[caller] {
			t.Fatalf("caller %d's call %d ran after its call %d", caller, seq, last[caller])
		}
		last[caller] = seq
	}
}

// TestInlineWaitOpenedBySameClient: a synchronous call that blocks inside
// the object until another call opens it, sent on the same client by
// another goroutine, completes within a few ticks: the blocked call runs
// on the connection's reader, and the client, sending the opening call
// behind it on the same connection, frees that reader at once
// (handOffRun), so a fresh one reads the call that opens it.
func TestInlineWaitOpenedBySameClient(t *testing.T) {
	srv, c := oneMachine(t)
	ref, err := c.New(bg, 0, "test.Slowpoke", nil)
	if err != nil {
		t.Fatal(err)
	}
	pingSync(t, c, ref)
	obj, _ := srv.Object(ref.Object)
	blocked := make(chan error, 1)
	go func() {
		d, err := c.Call(bg, ref, "block", nil)
		d.Release()
		blocked <- err
	}()
	<-obj.(*slowpoke).entered
	if !lentTurn(srv, ref.Object) || !ownReader(c, 0) {
		t.Fatal("the blocking call does not run on the reader, or its caller does not read its reply")
	}
	start := time.Now()
	d, err := c.Call(bg, ref, "unblock", nil)
	d.Release()
	if err != nil {
		t.Fatalf("unblock: %v", err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("block: %v", err)
	}
	took := time.Since(start)
	t.Logf("opened after %v (%.2f ticks)", took, float64(took)/float64(inlineTick))
	if took > 5*inlineTick {
		t.Errorf("the opening call took %v, over five ticks", took)
	}
}

// TestWatchdogFreesABlockedReader: a request that comes behind a blocked
// inline method on its connection from no client of this process — here
// frames written on a bare connection — is read by the fresh reader the
// watchdog starts once the method has held the reader for a whole tick.
func TestWatchdogFreesABlockedReader(t *testing.T) {
	srv, _, tr := oneMachineOver(t)
	sp := &slowpoke{release: make(chan struct{}), entered: make(chan struct{})}
	ref, err := srv.AddObject("test.Slowpoke", sp)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := tr.Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(requestFrame(1, PrioNormal|leadWaitedFlag, opCall, callOf(ref.Object, "block", nil))); err != nil {
		t.Fatal(err)
	}
	<-sp.entered
	if !lentTurn(srv, ref.Object) {
		t.Fatal("the waited call to an idle object does not run on the reader")
	}
	start := time.Now()
	if err := conn.Send(requestFrame(2, PrioNormal, opCall, callOf(ref.Object, "unblock", nil))); err != nil {
		t.Fatal(err)
	}
	answered := map[uint64]bool{}
	for len(answered) < 2 {
		frame, err := conn.Recv()
		if err != nil {
			t.Fatal(err)
		}
		d := wire.NewDecoder(frame)
		id, status := d.Uvarint(), d.Uvarint()
		if status != statusOK {
			t.Fatalf("request %d failed: %s", id, d.String())
		}
		answered[id] = true
	}
	took := time.Since(start)
	t.Logf("both answered after %v (%.2f ticks)", took, float64(took)/float64(inlineTick))
	if took > 10*inlineTick {
		t.Errorf("the request behind the blocked method took %v, over ten ticks", took)
	}
}

// TestInlineMethodCallsBackThroughItsCaller: a method that runs on the
// reader calls another object of its own machine through the client that
// called it, whose caller is reading its own reply. Its request goes
// behind the waited one on the same connection, so the client frees the
// server's reader at once (handOffRun) — each relay takes well under a
// tick, where waiting for the watchdog would take one to two — and the
// outer caller reads the inner reply and hands it on.
func TestInlineMethodCallsBackThroughItsCaller(t *testing.T) {
	srv, c := oneMachine(t)
	target, err := c.New(bg, 0, "test.Echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	rel := &relay{c: c, target: target}
	ref, err := srv.AddObject("test.Relay", rel)
	if err != nil {
		t.Fatal(err)
	}
	entry, _ := srv.lookup(ref.Object, false)
	rel.mb = entry.mb
	pingSync(t, c, target)
	const relays = 50
	took := make([]time.Duration, relays)
	inline := 0
	for i := range took {
		start := time.Now()
		d, err := c.Call(bg, ref, "relay", func(e *wire.Encoder) error { e.PutBytes([]byte("there and back")); return nil })
		took[i] = time.Since(start)
		if err != nil {
			t.Fatal(err)
		}
		if got := string(d.Bytes()); got != "there and back" {
			t.Fatalf("relayed %q", got)
		}
		d.Release()
		if rel.inline.Load() {
			inline++
		}
	}
	if inline == 0 {
		t.Error("the relaying method never ran on the reader")
	}
	slices.Sort(took)
	median := took[relays/2]
	t.Logf("%d relays, %d inline: median %v, longest %v", relays, inline, median, took[relays-1])
	if median > inlineTick/2 {
		t.Errorf("the median relay took %v, over half a tick: the inner request waited for the watchdog", median)
	}
}

// TestLoopReadsOnAfterEndableCalls: the receive loop gives up the
// connection's receive role only after the reply of a caller that asked
// to read its own: after a call its context or a timeout can end it
// reads on, so that the next such call needs no wake.
func TestLoopReadsOnAfterEndableCalls(t *testing.T) {
	_, c := oneMachine(t)
	ref, err := c.New(bg, 0, "test.Echo", nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	roleAfter := func(ctx context.Context, opts ...CallOption) role {
		d, err := c.Call(ctx, ref, methodPing, nil, opts...)
		d.Release()
		if err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond) // the loop has delivered and chosen
		cc := (*c.cached.Load())[0]
		cc.mu.Lock()
		defer cc.mu.Unlock()
		return cc.reader
	}
	for _, tc := range []struct {
		name string
		ctx  context.Context
		opts []CallOption
		want role
	}{
		{"WithTimeout", bg, []CallOption{WithTimeout(time.Hour)}, loop},
		{"cancelable context", ctx, nil, loop},
		{"unendable, read by the loop", bg, nil, nobody},
		{"unendable, read by its caller", bg, nil, nobody},
		{"WithTimeout after a park", bg, []CallOption{WithTimeout(time.Hour)}, loop},
	} {
		if got := roleAfter(tc.ctx, tc.opts...); got != tc.want {
			t.Errorf("%s: the receive role is held by %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestCloseWithInlineMethodBlockedForever: a method that blocks forever on
// the reader holds up Server.Close no longer than closeGrace, and its
// caller, reading its own reply, is released with the machine down.
func TestCloseWithInlineMethodBlockedForever(t *testing.T) {
	srv, c := oneMachine(t)
	ref, err := c.New(bg, 0, "test.Slowpoke", nil)
	if err != nil {
		t.Fatal(err)
	}
	pingSync(t, c, ref)
	defer releaseSlowpoke(t, srv, ref)()
	obj, _ := srv.Object(ref.Object)
	blocked := make(chan error, 1)
	go func() {
		d, err := c.Call(bg, ref, "block", nil)
		d.Release()
		blocked <- err
	}()
	<-obj.(*slowpoke).entered
	if !lentTurn(srv, ref.Object) || !ownReader(c, 0) {
		t.Fatal("the blocking call does not run on the reader, or its caller does not read its reply")
	}
	start := time.Now()
	srv.Close()
	if took := time.Since(start); took > closeGrace+time.Second {
		t.Errorf("Close took %v with an inline method blocked, want at most closeGrace (%v)", took, closeGrace)
	}
	select {
	case err := <-blocked:
		var down *MachineDownError
		if !errors.As(err, &down) || down.Machine != 0 {
			t.Errorf("the blocked call's caller got %v, want a *MachineDownError for machine 0", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the caller reading its own reply was not released by the connection's loss")
	}
}

// TestOwnReaderReleasedByClientClose: a caller reading its own reply is
// released by Client.Close with ErrClientClosed.
func TestOwnReaderReleasedByClientClose(t *testing.T) {
	srv, c := oneMachine(t)
	ref, err := c.New(bg, 0, "test.Slowpoke", nil)
	if err != nil {
		t.Fatal(err)
	}
	pingSync(t, c, ref)
	defer releaseSlowpoke(t, srv, ref)()
	obj, _ := srv.Object(ref.Object)
	blocked := make(chan error, 1)
	go func() {
		d, err := c.Call(bg, ref, "block", nil)
		d.Release()
		blocked <- err
	}()
	<-obj.(*slowpoke).entered
	if !ownReader(c, 0) {
		t.Fatal("the caller does not read its own reply")
	}
	c.Close()
	select {
	case err := <-blocked:
		if !errors.Is(err, ErrClientClosed) {
			t.Errorf("the blocked call's caller got %v, want ErrClientClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the caller reading its own reply was not released by Close")
	}
}

// TestOnlyUnendableCallsAreWaited: a synchronous call marks its frame
// waited, and reads its reply itself, only when nothing but the reply can
// end it and nothing else is in flight on its connection. A call its
// context or a timeout can end leaves its reply to the receive loop, so
// that it can stop waiting, and so does one issued behind another request.
// Each call here goes unanswered until its client closes.
func TestOnlyUnendableCallsAreWaited(t *testing.T) {
	echo := Ref{Machine: 0, Object: 1, Class: "test.Echo"}
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	for _, tc := range []struct {
		name   string
		behind bool // issued while a CallAsync is pending
		waited bool
		ctx    context.Context
		opts   []CallOption
	}{
		{"alone", false, true, bg, nil},
		{"cancelable context", false, false, ctx, nil},
		{"WithTimeout", false, false, bg, []CallOption{WithTimeout(time.Hour)}},
		{"behind another request", true, false, bg, nil},
	} {
		c, _, tap := tappedClient()
		if tc.behind {
			c.CallAsync(bg, echo, "echo", nil)
			awaitReply(t, tap)
		}
		done := make(chan error, 1)
		go func() {
			_, err := c.Call(tc.ctx, echo, "echo", nil, tc.opts...)
			done <- err
		}()
		if lead := awaitReply(t, tap)[0]; (lead&leadWaitedFlag != 0) != tc.waited || clampPriority(lead) != PrioNormal {
			t.Errorf("%s: lead byte %#x, want waited %v", tc.name, lead, tc.waited)
		}
		if tc.waited {
			<-tap.asked // the caller is reading
		}
		c.Close()
		if err := <-done; !errors.Is(err, ErrClientClosed) {
			t.Errorf("%s: the call ended with %v, want ErrClientClosed", tc.name, err)
		}
	}
}
