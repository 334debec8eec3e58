package rmi

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"oopp/internal/metrics"
	"oopp/internal/trace"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// traceContext resolves the trace identity for one outbound operation:
// the context's trace if it carries one, promoted to sampled (or minted
// fresh, with this call as root) under WithSampled. ok reports whether a
// trace header should ride the wire at all — false keeps the frame
// byte-identical to the pre-trace format.
func traceContext(ctx context.Context, o *callOptions) (sc trace.SpanContext, ok bool) {
	if ctx != nil {
		sc, ok = trace.FromContext(ctx)
	}
	if o.sampled {
		if !ok {
			sc, ok = trace.NewRoot(true), true
		}
		sc.Sampled = true
	}
	return sc, ok
}

// clientSpan opens the client-side span of one sampled operation and
// re-parents sc to it, so the server span on the far machine hangs off
// this hop rather than off the caller's span directly. Returns a nil
// span (and sc unchanged) when the trace is unsampled.
func clientSpan(sc *trace.SpanContext, name string) *trace.Span {
	if !sc.Sampled {
		return nil
	}
	sp := trace.StartChild(*sc, name)
	sc.SpanID = sp.ID()
	return sp
}

// Directory resolves machine indices to dialable addresses. The cluster
// package implements it; a static list is provided for daemon deployments.
type Directory interface {
	// Addr returns the address of machine m.
	Addr(m int) (string, error)
	// Size returns the number of machines.
	Size() int
}

// ContextDirectory is implemented by directories whose resolution can
// block (e.g. a registry polling for a not-yet-published machine). The
// client prefers AddrContext when available, so per-call deadlines and
// cancellation bound address resolution, not just dialing.
type ContextDirectory interface {
	Directory
	// AddrContext is Addr bounded by ctx.
	AddrContext(ctx context.Context, m int) (string, error)
}

// resolveAddr resolves machine m through dir, context-bounded when the
// directory supports it.
func resolveAddr(ctx context.Context, dir Directory, m int) (string, error) {
	if cd, ok := dir.(ContextDirectory); ok {
		return cd.AddrContext(ctx, m)
	}
	return dir.Addr(m)
}

// StaticDirectory is a fixed address list: machine i lives at addrs[i].
type StaticDirectory []string

// Addr implements Directory.
func (d StaticDirectory) Addr(m int) (string, error) {
	if m < 0 || m >= len(d) {
		return "", fmt.Errorf("rmi: no machine %d (cluster size %d)", m, len(d))
	}
	return d[m], nil
}

// Size implements Directory.
func (d StaticDirectory) Size() int { return len(d) }

// ArgEncoder appends a call's arguments to the request frame. The typed
// stubs in substrate packages pass closures over their argument values —
// this is the client half of the compiler-generated protocol.
type ArgEncoder func(e *wire.Encoder) error

// NoArgs is the ArgEncoder for nullary calls.
func NoArgs(*wire.Encoder) error { return nil }

// AnyArgs is the ArgEncoder for the tagged generic encoding — the layer
// under NewOn/Invoke.
func AnyArgs(args ...any) ArgEncoder {
	return func(e *wire.Encoder) error { return e.PutAnys(args) }
}

// Dial backoff tuning: retry k of a dial (WithRetryDial), offset by the
// machine's persistent failure streak, waits dialBackoff << k capped at
// dialBackoffMax — exponential backoff, so a machine that keeps refusing
// connections is probed progressively less often while the call's
// context still bounds the total wait.
const (
	dialBackoff    = 10 * time.Millisecond
	dialBackoffMax = time.Second
)

// backoffDelay returns the exponential dial backoff for the given
// failure count (streak + in-call attempt), capped at dialBackoffMax.
func backoffDelay(failures int) time.Duration {
	if failures > 7 {
		failures = 7 // 10ms << 7 already exceeds the cap
	}
	d := dialBackoff << failures
	if d > dialBackoffMax {
		d = dialBackoffMax
	}
	return d
}

// Client issues remote constructions and method calls. One Client
// multiplexes any number of concurrent calls over one connection per
// machine; responses are matched to callers by request id, which is what
// makes the §4 send-loop/receive-loop split effective.
//
// Every operation takes a context.Context and optional CallOptions. The
// context governs dialing and sending and — for the synchronous forms —
// waiting; cancellation aborts the in-flight call promptly and the late
// response, if any, is dropped and counted (see metrics.Counters).
//
// The synchronous Call path is allocation-free in steady state: request
// frames come from pooled encoders, the transport takes ownership of them
// (no copy on inproc), responses arrive in pooled frames, and the decoder
// handed back to the caller returns everything to the pools via
// wire.Decoder.Release. Callers that drop the decoder instead merely fall
// back to the garbage collector.
type Client struct {
	tr  transport.Transport
	dir Directory

	nextID atomic.Uint64

	mu     sync.Mutex
	conns  map[int]*clientConn
	down   map[int]error // machines declared down by the failure detector
	streak map[int]int   // consecutive dial failures per machine (backoff seed)
	closed bool
}

// NewClient returns a client over tr, resolving machines through dir.
func NewClient(tr transport.Transport, dir Directory) *Client {
	return &Client{
		tr:     tr,
		dir:    dir,
		conns:  make(map[int]*clientConn),
		down:   make(map[int]error),
		streak: make(map[int]int),
	}
}

// Directory returns the client's machine directory.
func (c *Client) Directory() Directory { return c.dir }

// Close shuts down all connections. In-flight calls fail with ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conns := c.conns
	c.conns = make(map[int]*clientConn)
	c.mu.Unlock()
	for _, cc := range conns {
		cc.close(ErrClientClosed)
	}
	return nil
}

// conn returns the connection to machine m, dialing (with per-attempt
// exponential backoff seeded by the machine's failure streak) when none
// is cached. A connection that died was evicted from the cache by its
// receive loop, so the next call through here transparently reconnects —
// a dropped link never strands a machine. Machines marked down by the
// failure detector fail fast with the recorded *MachineDownError until a
// probe (o.probe) or an explicit recovery clears the mark.
func (c *Client) conn(ctx context.Context, m int, o *callOptions) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClientClosed
	}
	if cc, ok := c.conns[m]; ok {
		c.mu.Unlock()
		return cc, nil
	}
	if !o.probe {
		if cause, down := c.down[m]; down {
			c.mu.Unlock()
			return nil, cause
		}
	}
	streak := c.streak[m]
	c.mu.Unlock()

	var raw transport.Conn
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("rmi: dial machine %d: %w", m, err)
		}
		// Resolve inside the retry loop: a machine restarted at a new
		// address (dynamic registries) becomes reachable mid-retry. The
		// call's context bounds a blocking resolver.
		addr, err := resolveAddr(ctx, c.dir, m)
		if err != nil {
			return nil, err
		}
		raw, err = c.tr.Dial(addr)
		if err == nil {
			break
		}
		if attempt >= o.retryDial {
			c.mu.Lock()
			c.streak[m]++ // increment in place: a concurrent markUp must not be overwritten by a stale read
			c.mu.Unlock()
			return nil, &MachineDownError{Machine: m, Cause: fmt.Errorf("rmi: dial machine %d: %w", m, err)}
		}
		metrics.Default.DialRetries.Add(1)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("rmi: dial machine %d: %w", m, ctx.Err())
		case <-time.After(backoffDelay(streak + attempt)):
		}
	}
	cc := newClientConn(raw, c, m)

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		cc.close(ErrClientClosed)
		return nil, ErrClientClosed
	}
	delete(c.streak, m)
	delete(c.down, m) // a successful dial is proof of life
	if existing, ok := c.conns[m]; ok {
		// Lost the dial race; use the established connection.
		cc.close(ErrClientClosed)
		return existing, nil
	}
	c.conns[m] = cc
	return cc, nil
}

// forget evicts a dead connection from the cache (if it is still the
// cached one), so the next operation to that machine redials.
func (c *Client) forget(m int, cc *clientConn) {
	c.mu.Lock()
	if c.conns[m] == cc {
		delete(c.conns, m)
	}
	c.mu.Unlock()
}

// markDown records machine m as failed: its connection is closed (failing
// every pending call with the typed cause) and, until markUp or a
// successful probe, every new non-probe operation to m fails fast with
// the same *MachineDownError instead of timing out against a dead host.
//
// closeConn distinguishes a crash verdict from an orderly departure: a
// draining machine refuses new work but still answers the calls it
// already accepted, so its connection must stay open for those replies.
// While that connection lives, new work reaching the server is refused
// by the server itself (typed ErrDraining — authoritative); the recorded
// fast-fail verdict takes over once the link dies and the connection is
// evicted.
func (c *Client) markDown(m int, cause error, closeConn bool) {
	down := &MachineDownError{Machine: m, Cause: cause}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.down[m] = down
	var cc *clientConn
	if closeConn {
		cc = c.conns[m]
		delete(c.conns, m)
	}
	c.mu.Unlock()
	if cc != nil {
		cc.close(down)
	}
}

// markUp clears a down mark and the machine's dial-failure streak.
func (c *Client) markUp(m int) {
	c.mu.Lock()
	delete(c.down, m)
	delete(c.streak, m)
	c.mu.Unlock()
}

// MarkUp manually clears a failure-detector verdict for machine m, so
// traffic dials it again. Normally recovery is automatic — a successful
// probe (heartbeat ping, cluster.WaitReady) clears the mark — but an
// operator restarting machines with no detector running can use this
// directly.
func (c *Client) MarkUp(m int) { c.markUp(m) }

// MachineDown returns the *MachineDownError recorded for machine m by the
// failure detector, or nil while m is considered up.
func (c *Client) MachineDown(m int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[m]
}

// InFlight returns the number of outstanding requests across all of the
// client's connections — issued (or registered) and not yet answered,
// failed, or abandoned. It is a live load signal: the serve package's
// connection pool picks the least-loaded client with it.
func (c *Client) InFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, cc := range c.conns {
		n += cc.inflight.Load()
	}
	return int(n)
}

// InFlightTo returns the number of outstanding requests on the
// connection to machine m (0 when no connection is cached).
func (c *Client) InFlightTo(m int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cc, ok := c.conns[m]; ok {
		return int(cc.inflight.Load())
	}
	return 0
}

// New constructs an object of the registered class on machine m — the
// paper's "new(machine m) Class(args)". It blocks until the remote
// constructor finishes and returns the remote pointer.
func (c *Client) New(ctx context.Context, m int, class string, args ArgEncoder, opts ...CallOption) (Ref, error) {
	fut, err := c.NewAsync(ctx, m, class, args, opts...)
	if err != nil {
		return Ref{}, err
	}
	return fut.Ref(ctx)
}

// NewAsync begins a remote construction and returns immediately. The
// context governs dialing/sending now and, if cancelable, aborts the
// pending future later; per-call deadlines travel via WithTimeout.
func (c *Client) NewAsync(ctx context.Context, m int, class string, args ArgEncoder, opts ...CallOption) (*Future, error) {
	o := resolveOptions(opts)
	sc, traced := traceContext(ctx, &o)
	var span *trace.Span
	if traced {
		span = clientSpan(&sc, "new "+class)
	}
	e := wire.GetEncoder(64)
	reqID := c.nextID.Add(1)
	lead := byte(o.priority(PrioNormal))
	if traced {
		lead |= leadTraceFlag
	}
	e.PutByte(lead)
	e.PutUvarint(reqID)
	e.PutUvarint(opNew)
	if traced {
		putTraceHeader(e, sc)
	}
	e.PutString(class)
	if args != nil {
		if err := args(e); err != nil {
			wire.PutEncoder(e)
			span.End(true)
			return nil, err
		}
	}
	fut := newFuture(m, class, "", o.label)
	fut.span = span
	if err := c.send(ctx, m, reqID, e, fut, &o); err != nil {
		fut.fail(err) // ends the span exactly once even if send already failed it
		return nil, err
	}
	return fut, nil
}

// NewArgs is New with the tagged generic argument encoding. Prefer the
// typed NewOn[T].
func (c *Client) NewArgs(ctx context.Context, m int, class string, args ...any) (Ref, error) {
	return c.New(ctx, m, class, AnyArgs(args...))
}

// Call invokes a method on a remote object and blocks until its results
// arrive (§2 sequential semantics). The returned decoder is positioned at
// the method's results.
//
// The decoder owns the response frame: call its Release method once
// decoding is finished to recycle the frame (views from BytesView become
// invalid at that point). Dropping the decoder without Release is safe
// but allocates garbage instead of recycling.
func (c *Client) Call(ctx context.Context, ref Ref, method string, args ArgEncoder, opts ...CallOption) (*wire.Decoder, error) {
	o := resolveOptions(opts)
	if ctx == nil {
		ctx = context.Background()
	}
	if o.retryOverload <= 0 {
		return c.callOnce(ctx, ref, method, args, &o)
	}
	// Overload retry (WithRetryOverload): re-issue a call the server shed
	// with the typed overload error, waiting out the server's RetryAfter
	// hint (jittered) between attempts. Only Call retries — a shed request
	// never ran, so re-running it is safe for any method; New never takes
	// this path because construction is not idempotent.
	for attempt := 0; ; attempt++ {
		d, err := c.callOnce(ctx, ref, method, args, &o)
		if err == nil || attempt >= o.retryOverload || !errors.Is(err, ErrOverloaded) {
			return d, err
		}
		metrics.Default.OverloadRetries.Add(1)
		wait := overloadBackoff(err, attempt, o.retryMaxWait)
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return nil, fmt.Errorf("rmi: overload retry of %s.%s aborted: %w", ref.Class, method, ctx.Err())
		}
	}
}

// overloadBackoff derives the wait before re-issuing a shed call, after
// failed attempt attempt (0-based): the server's RetryAfter hint when the
// error carries one, otherwise an exponential fallback from 5ms; either
// way with ±25% jitter — a shed burst of callers must not return in
// lockstep — and capped at maxWait when maxWait > 0.
func overloadBackoff(err error, attempt int, maxWait time.Duration) time.Duration {
	wait, ok := RetryAfter(err)
	if !ok || wait <= 0 {
		if attempt > 10 {
			attempt = 10
		}
		wait = 5 * time.Millisecond << uint(attempt)
	}
	wait = wait*3/4 + time.Duration(rand.Int64N(int64(wait/2)+1))
	if maxWait > 0 && wait > maxWait {
		wait = maxWait
	}
	return wait
}

// callOnce is one attempt of Call: encode, send, wait.
func (c *Client) callOnce(ctx context.Context, ref Ref, method string, args ArgEncoder, o *callOptions) (*wire.Decoder, error) {
	if ref.IsNil() {
		return nil, fmt.Errorf("rmi: call %s on nil ref", method)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("rmi: send to machine %d: %w", ref.Machine, err)
	}
	// Bound the whole operation — dialing included — by the per-call
	// timeout, mirroring the future path: the timer starts before the
	// dial, so dial time and response wait share one budget.
	var timeoutCh <-chan time.Time
	dialCtx := ctx
	if o.timeout > 0 {
		timer := time.NewTimer(o.timeout)
		defer timer.Stop()
		timeoutCh = timer.C
		var cancel context.CancelFunc
		dialCtx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	cc, err := c.conn(dialCtx, ref.Machine, o)
	if err != nil {
		return nil, err
	}

	sc, traced := traceContext(ctx, o)
	var span *trace.Span
	if traced {
		span = clientSpan(&sc, "call "+ref.Class+"."+method)
	}
	e := wire.GetEncoder(64)
	reqID := c.nextID.Add(1)
	lead := byte(o.priority(PrioNormal))
	if traced {
		lead |= leadTraceFlag
	}
	e.PutByte(lead)
	e.PutUvarint(reqID)
	e.PutUvarint(opCall)
	if traced {
		putTraceHeader(e, sc)
	}
	e.PutUvarint(ref.Object)
	e.PutString(method)
	e.PutVarint(callDeadline(ctx, o))
	if args != nil {
		if err := args(e); err != nil {
			wire.PutEncoder(e)
			span.End(true)
			return nil, err
		}
	}

	// The pooled waiter stands in for a Future on this synchronous path:
	// a reusable one-slot channel instead of a once-closed one, so the
	// steady state allocates nothing.
	w := getWaiter(ref.Machine, ref.Class, method, o.label)
	cc.register(reqID, w)
	frame := e.Detach()
	wire.PutEncoder(e)
	metrics.Default.CallsIssued.Add(1)
	metrics.Default.MessagesSent.Add(1)
	metrics.Default.BytesSent.Add(int64(len(frame)))
	if err := cc.conn.Send(frame); err != nil {
		cc.unregister(reqID)
		span.End(true)
		// The waiter is not pooled here: a connection-death failure may
		// race in behind the unregister and deliver into its channel.
		return nil, cc.sendFailed(err)
	}

	select {
	case r := <-w.ch:
		putWaiter(w)
		span.End(r.err != nil)
		return r.d, r.err
	case <-ctx.Done():
		cc.unregister(reqID)
		span.End(true)
		return nil, fmt.Errorf("rmi: %s aborted: %w", w.describe(), ctx.Err())
	case <-timeoutCh:
		cc.unregister(reqID)
		span.End(true)
		return nil, fmt.Errorf("rmi: %s aborted: %w", w.describe(), context.DeadlineExceeded)
	}
}

// callDeadline computes the absolute deadline stamped into the opCall
// header (unix nanoseconds, 0 = none): the sooner of the per-call
// timeout — converted from relative to absolute at encode time — and
// the context's own deadline. The server sheds admitted requests whose
// deadline has already passed instead of executing work nobody is
// waiting for.
func callDeadline(ctx context.Context, o *callOptions) int64 {
	var dl time.Time
	if o.timeout > 0 {
		dl = time.Now().Add(o.timeout)
	}
	if cd, ok := ctx.Deadline(); ok && (dl.IsZero() || cd.Before(dl)) {
		dl = cd
	}
	if dl.IsZero() {
		return 0
	}
	return dl.UnixNano()
}

// CallAsync begins a method invocation and returns a Future immediately.
// This is the primitive under the paper's §4 loop-splitting transformation.
func (c *Client) CallAsync(ctx context.Context, ref Ref, method string, args ArgEncoder, opts ...CallOption) *Future {
	o := resolveOptions(opts)
	fut := newFuture(ref.Machine, ref.Class, method, o.label)
	if ref.IsNil() {
		fut.fail(fmt.Errorf("rmi: call %s on nil ref", method))
		return fut
	}
	sc, traced := traceContext(ctx, &o)
	if traced {
		fut.span = clientSpan(&sc, "call "+ref.Class+"."+method)
	}
	e := wire.GetEncoder(64)
	reqID := c.nextID.Add(1)
	lead := byte(o.priority(PrioNormal))
	if traced {
		lead |= leadTraceFlag
	}
	e.PutByte(lead)
	e.PutUvarint(reqID)
	e.PutUvarint(opCall)
	if traced {
		putTraceHeader(e, sc)
	}
	e.PutUvarint(ref.Object)
	e.PutString(method)
	e.PutVarint(callDeadline(ctx, &o))
	if args != nil {
		if err := args(e); err != nil {
			wire.PutEncoder(e)
			fut.fail(err)
			return fut
		}
	}
	metrics.Default.CallsIssued.Add(1)
	if err := c.send(ctx, ref.Machine, reqID, e, fut, &o); err != nil {
		fut.fail(err)
	}
	return fut
}

// CallArgs invokes a method using the tagged generic encoding for both
// arguments and results: results written by the method as PutAnys are
// decoded into []any. Prefer the typed Invoke[R].
func (c *Client) CallArgs(ctx context.Context, ref Ref, method string, args ...any) ([]any, error) {
	d, err := c.Call(ctx, ref, method, AnyArgs(args...))
	if err != nil {
		return nil, err
	}
	defer d.Release()
	if d.Remaining() == 0 {
		return nil, nil
	}
	return d.Anys()
}

// control begins a runtime operation — one addressed to a machine or, by
// its id, to an object, not to a method — and returns fut, failed
// already if the request could not be sent. Control operations ride
// PrioHigh unless o says otherwise.
func (c *Client) control(ctx context.Context, fut *Future, o *callOptions, op uint64, operands ...uint64) *Future {
	e := wire.GetEncoder(16)
	reqID := c.nextID.Add(1)
	e.PutByte(byte(o.priority(PrioHigh)))
	e.PutUvarint(reqID)
	e.PutUvarint(op)
	for _, x := range operands {
		e.PutUvarint(x)
	}
	if err := c.send(ctx, fut.machine, reqID, e, fut, o); err != nil {
		fut.fail(err)
	}
	return fut
}

// Delete destroys a remote object: queued calls complete, the destructor
// runs, the process terminates (§2).
func (c *Client) Delete(ctx context.Context, ref Ref, opts ...CallOption) error {
	return c.deleteAsync(ctx, ref, opts...).Err(ctx)
}

// deleteAsync begins a Delete (DeleteRefs pipelines them).
func (c *Client) deleteAsync(ctx context.Context, ref Ref, opts ...CallOption) *Future {
	o := resolveOptions(opts)
	fut := newFuture(ref.Machine, ref.Class, "~", o.label)
	if ref.IsNil() {
		fut.fail(fmt.Errorf("rmi: delete of nil ref"))
		return fut
	}
	return c.control(ctx, fut, &o, opDelete, ref.Object)
}

// Ping round-trips an empty frame to machine m.
func (c *Client) Ping(ctx context.Context, m int, opts ...CallOption) error {
	o := resolveOptions(opts)
	return c.control(ctx, newFuture(m, "", "", o.label), &o, opPing).Err(ctx)
}

// PingObject sends the built-in no-op through an object's mailbox; its
// completion proves all earlier messages to that object were processed.
func (c *Client) PingObject(ctx context.Context, ref Ref) error {
	d, err := c.Call(ctx, ref, methodPing, nil)
	d.Release()
	return err
}

// Stat returns (live, total) object counts for machine m.
func (c *Client) Stat(ctx context.Context, m int) (live, total uint64, err error) {
	fut := c.control(ctx, newFuture(m, "", "", ""), &callOptions{}, opStat)
	d, err := fut.Wait(ctx)
	if err != nil {
		return 0, 0, err
	}
	defer fut.Release()
	live = d.Uvarint()
	total = d.Uvarint()
	return live, total, d.Err()
}

// Debug pulls machine m's introspection snapshot: a JSON-encoded
// trace.Snapshot carrying the per-method latency histograms and outcome
// counters plus the machine's captured span ring. It rides PrioHigh and
// bypasses admission control on the server — a debug plane that goes
// dark under overload would be useless exactly when it matters.
func (c *Client) Debug(ctx context.Context, m int) ([]byte, error) {
	fut := c.control(ctx, newFuture(m, "", "", ""), &callOptions{}, opDebug)
	d, err := fut.Wait(ctx)
	if err != nil {
		return nil, err
	}
	defer fut.Release()
	buf := d.BytesCopy()
	return buf, d.Err()
}

// send transmits the request in e — whose ownership it takes — and wires
// fut for the response.
func (c *Client) send(ctx context.Context, m int, reqID uint64, e *wire.Encoder, fut *Future, o *callOptions) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		wire.PutEncoder(e)
		return fmt.Errorf("rmi: send to machine %d: %w", m, err)
	}
	// Arm the per-call deadline before dialing so WithTimeout bounds the
	// whole operation — including the dial/retry phase. The dial loop gets
	// a derived context with the same deadline; the future keeps the
	// caller's context (a derived one would be canceled when send returns).
	fut.arm(o.timeout)
	dialCtx := ctx
	if o.timeout > 0 {
		var cancel context.CancelFunc
		dialCtx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	cc, err := c.conn(dialCtx, m, o)
	if err != nil {
		wire.PutEncoder(e)
		return err
	}
	// Wire the future for cancellation before it can complete: the issue
	// context aborts it from Wait, the per-call timer aborts it anywhere.
	fut.bind(cc, reqID)
	if ctx.Done() != nil {
		fut.sendCtx = ctx
	}
	cc.register(reqID, fut)
	select {
	case <-fut.done:
		// The per-call timer fired while we were dialing: the future
		// already failed; don't leave a registration or send the frame.
		cc.unregister(reqID)
		wire.PutEncoder(e)
		return nil
	default:
	}
	frame := e.Detach()
	wire.PutEncoder(e)
	metrics.Default.MessagesSent.Add(1)
	metrics.Default.BytesSent.Add(int64(len(frame)))
	if err := cc.conn.Send(frame); err != nil {
		cc.unregister(reqID)
		return cc.sendFailed(err)
	}
	return nil
}

// pendingCall is a registered response consumer: a *Future (asynchronous
// path) or a pooled *callWaiter (synchronous Call path). Exactly one of
// its completion methods is invoked per registration.
type pendingCall interface {
	succeed(d *wire.Decoder)
	fail(err error)
	// remoteFail reports a statusErr response; implementations wrap msg in
	// a RemoteError carrying their call-site metadata.
	remoteFail(msg string)
}

// waitResult is the outcome delivered to a synchronous caller.
type waitResult struct {
	d   *wire.Decoder
	err error
}

// callWaiter is the synchronous counterpart of a Future: a reusable
// one-slot channel plus call-site metadata for error text. Waiters
// recycle through a pool — but only when their result was consumed on the
// normal path; abandoned waiters (cancellation, send failure) are left to
// the garbage collector because a late delivery may still land in them.
type callWaiter struct {
	ch      chan waitResult
	machine int
	class   string
	method  string
	label   string
}

var waiterPool = sync.Pool{
	New: func() any { return &callWaiter{ch: make(chan waitResult, 1)} },
}

func getWaiter(machine int, class, method, label string) *callWaiter {
	w := waiterPool.Get().(*callWaiter)
	w.machine, w.class, w.method, w.label = machine, class, method, label
	return w
}

func putWaiter(w *callWaiter) { waiterPool.Put(w) }

func (w *callWaiter) succeed(d *wire.Decoder) { w.ch <- waitResult{d: d} }

func (w *callWaiter) fail(err error) { w.ch <- waitResult{err: err} }

func (w *callWaiter) remoteFail(msg string) {
	w.ch <- waitResult{err: &RemoteError{Machine: w.machine, Class: w.class, Method: w.method, Msg: msg}}
}

func (w *callWaiter) describe() string {
	name := w.class
	if w.method != "" {
		name += "." + w.method
	}
	if name == "" {
		name = "operation"
	}
	if w.label != "" {
		return fmt.Sprintf("%s [%s] on machine %d", name, w.label, w.machine)
	}
	return fmt.Sprintf("%s on machine %d", name, w.machine)
}

// clientConn is one multiplexed connection: a send side shared by callers
// and a single receive loop matching responses to pending futures and
// waiters. It knows its owner and machine so connection death can evict
// it from the owner's cache — the eviction is what makes reconnection
// automatic.
type clientConn struct {
	conn    transport.Conn
	owner   *Client
	machine int

	// inflight mirrors len(pending) behind an atomic so load-aware
	// connection pickers (internal/serve) can read a connection's
	// outstanding-request count without taking mu.
	inflight atomic.Int64

	mu      sync.Mutex
	pending map[uint64]pendingCall
	dead    error
}

func newClientConn(conn transport.Conn, owner *Client, machine int) *clientConn {
	cc := &clientConn{conn: conn, owner: owner, machine: machine, pending: make(map[uint64]pendingCall)}
	go cc.recvLoop()
	return cc
}

func (cc *clientConn) register(reqID uint64, pc pendingCall) {
	cc.mu.Lock()
	if cc.dead != nil {
		err := cc.dead
		cc.mu.Unlock()
		pc.fail(err)
		return
	}
	cc.pending[reqID] = pc
	cc.inflight.Store(int64(len(cc.pending)))
	cc.mu.Unlock()
}

func (cc *clientConn) unregister(reqID uint64) {
	cc.mu.Lock()
	delete(cc.pending, reqID)
	cc.inflight.Store(int64(len(cc.pending)))
	cc.mu.Unlock()
}

func (cc *clientConn) recvLoop() {
	for {
		frame, err := cc.conn.Recv()
		if err != nil {
			// The link is gone: evict this connection from the owner's
			// cache first (so new operations redial instead of landing
			// here), then fail every pending call with the typed cause.
			cc.owner.forget(cc.machine, cc)
			cc.close(&MachineDownError{Machine: cc.machine, Cause: fmt.Errorf("rmi: connection lost: %w", err)})
			return
		}
		metrics.Default.MessagesRecv.Add(1)
		metrics.Default.BytesRecv.Add(int64(len(frame)))
		// The decoder takes ownership of the pooled frame; it travels to
		// the caller on success and is released here on every other path.
		d := wire.GetFrameDecoder(frame)
		reqID := d.Uvarint()
		status := d.Uvarint()
		if d.Err() != nil {
			// Unparseable response header: nothing to match it to. Count it
			// — a nonzero RespDropped means a peer is speaking garbage.
			metrics.Default.RespDropped.Add(1)
			d.Release()
			continue
		}
		cc.mu.Lock()
		pc, ok := cc.pending[reqID]
		delete(cc.pending, reqID)
		cc.inflight.Store(int64(len(cc.pending)))
		cc.mu.Unlock()
		if !ok {
			// Response to an abandoned request (canceled, timed out, or
			// never registered). Expected under cancellation, but counted
			// so operators can see the orphan rate.
			metrics.Default.RespOrphaned.Add(1)
			d.Release()
			continue
		}
		if status == statusOK {
			pc.succeed(d)
		} else {
			pc.remoteFail(d.String())
			d.Release()
		}
	}
}

// sendFailed types the failure of a Send on this established connection.
// If the connection was closed from this side — the client closed, the
// failure detector's verdict — the cause it was closed with is the answer.
// Otherwise the peer is gone and the receive loop has not noticed yet: that
// is the machine down, as the receive loop will say in a moment, not an
// untyped transport error for whoever asked first.
func (cc *clientConn) sendFailed(err error) error {
	cc.mu.Lock()
	dead := cc.dead
	cc.mu.Unlock()
	if dead != nil {
		return dead
	}
	return &MachineDownError{Machine: cc.machine, Cause: fmt.Errorf("rmi: send to machine %d: %w", cc.machine, err)}
}

// close fails every pending future and closes the socket.
func (cc *clientConn) close(cause error) {
	cc.mu.Lock()
	if cc.dead != nil {
		cc.mu.Unlock()
		return
	}
	cc.dead = cause
	pending := cc.pending
	cc.pending = make(map[uint64]pendingCall)
	cc.inflight.Store(0)
	cc.mu.Unlock()
	cc.conn.Close()
	for _, pc := range pending {
		pc.fail(cause)
	}
}
