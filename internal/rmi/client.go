package rmi

import (
	"context"
	"errors"
	"fmt"
	"maps"
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
	sc, ok = trace.FromContext(ctx)
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
// Every operation takes a context.Context (nil means
// context.Background()) and optional CallOptions. The context governs
// dialing and sending and — for the synchronous forms — waiting;
// cancellation aborts the in-flight call promptly and the late response,
// if any, is dropped and counted (metrics.Registry.RespOrphaned).
//
// A request leaves a client one way: every operation is a request that
// encode writes and send sends (through clientConn.write), and the
// operations differ only in how they wait for the response: on a Future
// (CallAsync, NewAsync and what is built on them), or, for Call, on a
// pooled waiter, which keeps the synchronous path allocation-free in
// steady state with the pooled encoders, frames and decoders under it.
// Callers that drop the decoder instead of releasing it merely fall back
// to the garbage collector.
type Client struct {
	tr  transport.Transport
	dir Directory

	// counters is the registry the client counts into: its machine's
	// (Env.AttachClient), or machineless.
	counters *metrics.Registry

	nextID      atomic.Uint64
	collectives atomic.Uint64 // numbers the client's collectives (inBurst)

	// conns caches a connection per machine. Every change to it, under
	// mu, publishes a copy in cached, which is never written: an operation
	// finds its connection there without a lock.
	mu     sync.Mutex
	conns  map[int]*clientConn
	cached atomic.Pointer[map[int]*clientConn]
	down   map[int]error // machines declared down by the failure detector
	streak map[int]int   // consecutive dial failures per machine (backoff seed)
	closed bool
}

// machineless is the registry of the clients that serve no machine:
// drivers, load generators, introspection tools.
var machineless = metrics.NewRegistry()

// NewClient returns a client over tr, resolving machines through dir,
// that serves no machine: it counts into machineless.
func NewClient(tr transport.Transport, dir Directory) *Client {
	c := &Client{
		tr:       tr,
		dir:      dir,
		counters: machineless,
		conns:    make(map[int]*clientConn),
		down:     make(map[int]error),
		streak:   make(map[int]int),
	}
	c.publishConns()
	return c
}

// AttachClient gives the machine of e an outbound client over tr and dir,
// which counts into the machine's registry, and installs it as e.Client.
func (e *Env) AttachClient(tr transport.Transport, dir Directory) *Client {
	e.Client = NewClient(tr, dir)
	e.Client.counters = e.Counters()
	return e.Client
}

// publishConns publishes a copy of the connection cache. The caller holds
// c.mu, or is NewClient.
func (c *Client) publishConns() {
	conns := maps.Clone(c.conns)
	c.cached.Store(&conns)
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
	c.publishConns()
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
// probe (o.probe) or an explicit recovery clears the mark. A cached
// connection is found without a lock; a closed client caches none.
func (c *Client) conn(ctx context.Context, m int, o *callOptions) (*clientConn, error) {
	if cc, ok := (*c.cached.Load())[m]; ok {
		return cc, nil
	}
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
		c.counters.DialRetries.Add(1)
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
	c.publishConns()
	return cc, nil
}

// forget evicts a dead connection from the cache (if it is still the
// cached one), so the next operation to that machine redials.
func (c *Client) forget(m int, cc *clientConn) {
	c.mu.Lock()
	if c.conns[m] == cc {
		delete(c.conns, m)
		c.publishConns()
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
		if cc = c.conns[m]; cc != nil {
			delete(c.conns, m)
			c.publishConns()
		}
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
	var n int64
	for _, cc := range *c.cached.Load() {
		n += cc.inflight.Load()
	}
	return int(n)
}

// InFlightTo returns the number of outstanding requests on the
// connection to machine m (0 when no connection is cached).
func (c *Client) InFlightTo(m int) int {
	if cc, ok := (*c.cached.Load())[m]; ok {
		return int(cc.inflight.Load())
	}
	return 0
}

// New constructs an object of the registered class on machine m — the
// paper's "new(machine m) Class(args)". It blocks until the remote
// constructor finishes and returns the remote pointer.
func (c *Client) New(ctx context.Context, m int, class string, args ArgEncoder, opts ...CallOption) (Ref, error) {
	return c.NewAsync(ctx, m, class, args, opts...).Ref(ctx)
}

// NewAsync begins a remote construction and returns its Future
// immediately — failed already if the request could not leave, like
// CallAsync. The context governs dialing/sending now and, if cancelable,
// aborts the pending future later; per-call deadlines travel via
// WithTimeout.
func (c *Client) NewAsync(ctx context.Context, m int, class string, args ArgEncoder, opts ...CallOption) *Future {
	return c.newAsync(ctx, m, class, args, resolveOptions(opts))
}

// newAsync is NewAsync under options already resolved (SpawnRefs resolves
// them once for all its members).
func (c *Client) newAsync(ctx context.Context, m int, class string, args ArgEncoder, o callOptions) *Future {
	return c.start(ctx, callSite{machine: m, class: class}, request{op: opNew, prio: PrioNormal, args: args}, o)
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
		c.counters.OverloadRetries.Add(1)
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

// callOnce is one attempt of Call: the synchronous way to wait for the
// request encode writes and send sends. It is not start + Future.Wait
// because of what that costs: a Future and its channel are 2 allocations
// a call — measured at PR 22 on 17 pinned allocs/op cells of E1, E2 and
// E12, on the hard 0-allocation gates of E14 and E17, and as ≈ +0.06 on
// small_calls op_x_bare — where a pooled waiter, a reusable one-slot
// channel nobody else can be waiting on, costs none.
//
// A call that nothing but its reply can end — its context cannot be
// canceled, and it has no WithTimeout — asks to read that reply itself
// (callSite.asks): when its connection has nothing else in flight and
// nobody reading, send marks its frame waited (leadWaitedFlag), and the
// caller, not the connection's receive loop, reads until its reply has
// come (readOwn). So the reply crosses no goroutine to reach it.
func (c *Client) callOnce(ctx context.Context, ref Ref, method string, args ArgEncoder, o *callOptions) (*wire.Decoder, error) {
	w := waiterPool.Get().(*callWaiter)
	w.callSite = callSite{machine: ref.Machine, class: ref.Class, method: method, label: o.label}
	w.asks = o.timeout <= 0 && ctx.Done() == nil
	reqID, e, err := c.encode(ctx, request{op: opCall, prio: PrioNormal, object: ref.Object, args: args}, &w.callSite, o)
	var timeout <-chan time.Time
	if err == nil {
		if o.timeout > 0 {
			// One budget for the dial inside send and the wait below, as
			// Future.arm's timer is for the other way to wait.
			timer := time.NewTimer(o.timeout)
			defer timer.Stop()
			timeout = timer.C
		}
		err = c.send(ctx, reqID, e, w, o)
	}
	if err != nil {
		w.span.End(true)
		return nil, err
	}
	if w.reads {
		r := w.cc.readOwn(w)
		w.span.End(r.err != nil)
		waiterPool.Put(w)
		return r.d, r.err
	}
	select {
	case r := <-w.ch:
		w.span.End(r.err != nil)
		waiterPool.Put(w)
		return r.d, r.err
	case <-ctx.Done():
		err = ctx.Err()
	case <-timeout:
		err = context.DeadlineExceeded
	}
	// Only a waiter whose result was consumed goes back to the pool: a
	// dying connection may still deliver into this one behind the abandon.
	w.abandon()
	w.span.End(true)
	return nil, w.aborted(err)
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
	return c.callAsync(ctx, ref, method, args, resolveOptions(opts))
}

// callAsync is CallAsync under options already resolved (FanOut resolves
// them once for all its members).
func (c *Client) callAsync(ctx context.Context, ref Ref, method string, args ArgEncoder, o callOptions) *Future {
	return c.start(ctx, callSite{machine: ref.Machine, class: ref.Class, method: method}, request{op: opCall, prio: PrioNormal, object: ref.Object, args: args}, o)
}

// Delete destroys a remote object: queued calls complete, the destructor
// runs, the process terminates (§2).
func (c *Client) Delete(ctx context.Context, ref Ref, opts ...CallOption) error {
	return c.deleteAsync(ctx, ref, resolveOptions(opts)).Err(ctx)
}

// deleteAsync begins a Delete under options already resolved (DeleteRefs
// pipelines them, resolving its options once for all its members).
func (c *Client) deleteAsync(ctx context.Context, ref Ref, o callOptions) *Future {
	return c.start(ctx, callSite{machine: ref.Machine, class: ref.Class, method: "~"}, request{op: opDelete, prio: PrioHigh, object: ref.Object}, o)
}

// control begins a runtime operation addressed to machine m itself —
// ping, stat, debug.
func (c *Client) control(ctx context.Context, m int, op uint64, opts []CallOption) *Future {
	return c.start(ctx, callSite{machine: m}, request{op: op, prio: PrioHigh}, resolveOptions(opts))
}

// Ping round-trips an empty frame to machine m.
func (c *Client) Ping(ctx context.Context, m int, opts ...CallOption) error {
	return c.control(ctx, m, opPing, opts).Err(ctx)
}

// Stat returns (live, total) object counts for machine m.
func (c *Client) Stat(ctx context.Context, m int) (live, total uint64, err error) {
	fut := c.control(ctx, m, opStat, nil)
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
	fut := c.control(ctx, m, opDebug, nil)
	d, err := fut.Wait(ctx)
	if err != nil {
		return nil, err
	}
	buf, err := d.BytesCopy(), d.Err()
	fut.Release()
	return buf, err
}

// request is one outbound operation as encode writes it; where it goes
// and what it is called — machine, class, method — is the waiter's
// callSite. Every operation of a client is such a pair, written by encode
// and sent by send: New, Call, Delete, Ping and the rest differ in the
// fields they set and in how they wait. (The names are not in here
// because a callSite keeps them: a request that is only read lets the
// caller's args closure stay on its stack.)
type request struct {
	op     uint64
	prio   Priority   // admission class unless WithPriority names one
	object uint64     // opCall, opDelete: the object addressed
	args   ArgEncoder // opNew, opCall: appends the arguments (nil: none)
}

// start issues rq at site the asynchronous way: the Future it returns is
// completed by the response, by its contexts or by the per-call timer —
// and has failed already if the request could not leave.
func (c *Client) start(ctx context.Context, site callSite, rq request, o callOptions) *Future {
	if ctx == nil {
		ctx = context.Background()
	}
	site.label = o.label
	fut := &Future{callSite: site, done: make(chan struct{})}
	if ctx.Done() != nil {
		fut.sendCtx = ctx
	}
	reqID, e, err := c.encode(ctx, rq, &fut.callSite, &o)
	if err == nil {
		fut.arm(o.timeout)
		err = c.send(ctx, reqID, e, fut, &o)
	}
	if err != nil {
		fut.complete(nil, err)
	}
	return fut
}

// encode writes the request frame of rq at s — the only place in the
// client that does:
//
//	lead byte | reqID | op | [trace header] | op header | args
//
// A traced operation's client span is opened here, first, so that it
// covers the dial and is in s — the call site of the waiter the response
// is for — before anything that could complete that waiter, a timer or a
// connection, knows of it; the waiter ends it. Only New and Call are
// traced: the runtime's own operations carry no trace header.
func (c *Client) encode(ctx context.Context, rq request, s *callSite, o *callOptions) (uint64, *wire.Encoder, error) {
	nilRef := rq.object == 0 && s.class == ""
	var sc trace.SpanContext
	traced := false
	switch rq.op {
	case opNew:
		if sc, traced = traceContext(ctx, o); traced {
			s.span = clientSpan(&sc, "new "+s.class)
		}
	case opCall:
		if nilRef {
			return 0, nil, fmt.Errorf("rmi: call %s on nil ref", s.method)
		}
		if sc, traced = traceContext(ctx, o); traced {
			s.span = clientSpan(&sc, "call "+s.class+"."+s.method)
		}
	case opDelete:
		if nilRef {
			return 0, nil, fmt.Errorf("rmi: delete of nil ref")
		}
	}
	e := wire.GetEncoder(64)
	reqID := c.nextID.Add(1)
	lead := byte(o.priority(rq.prio))
	if traced {
		lead |= leadTraceFlag
	}
	e.PutByte(lead)
	e.PutUvarint(reqID)
	e.PutUvarint(rq.op)
	if traced {
		putTraceHeader(e, sc)
	}
	switch rq.op {
	case opNew:
		e.PutString(s.class)
	case opCall:
		e.PutUvarint(rq.object)
		e.PutString(s.method)
		e.PutVarint(callDeadline(ctx, o))
	case opDelete:
		e.PutUvarint(rq.object)
	}
	if rq.args != nil {
		if err := rq.args(e); err != nil {
			wire.PutEncoder(e)
			return 0, nil, err
		}
	}
	return reqID, e, nil
}

// send puts the request in e — which it owns — on the wire to pc's
// machine and leaves pc registered for the response. Every operation
// comes through here, and so in one order: encode, then the caller arms
// the per-call timer, then here context check → dial → register → bind →
// write. So an argument encoder that fails never dials, the client span
// covers the dial, and WithTimeout bounds the whole operation: the dial
// loop runs under a context with the timer's budget (derived here; the
// waiter keeps the caller's, a derived one is canceled when send
// returns).
//
// A request leaves one way, and that way ends in clientConn.write: at
// once — or, for a request of a collective's burst (inBurst), in one write
// per machine with the rest of the burst, when the collective flushes. A
// held request is registered, bound and counted like a sent one; its
// timer or context firing abandons it the same way, and the reply that
// comes all the same is an orphan.
//
// A nil return means pc is — or, where bind said so, already was —
// completed by someone else; an error means nobody will, and the caller
// reports it.
func (c *Client) send(ctx context.Context, reqID uint64, e *wire.Encoder, pc pendingCall, o *callOptions) error {
	defer wire.PutEncoder(e)
	m := pc.site().machine
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("rmi: send to machine %d: %w", m, err)
	}
	dialCtx := ctx
	if o.timeout > 0 {
		var cancel context.CancelFunc
		dialCtx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	cc, err := c.conn(dialCtx, m, o)
	if err != nil {
		return err
	}
	// Register, then bind: a timer that fires in between finds nothing to
	// abandon and bind reports it; one that fires after bind abandons the
	// registration itself. The other order would leave a registration
	// behind a timer that fired between the two. A connection found stale
	// has been evicted: the request goes on a fresh one.
	reads, stale := cc.register(reqID, pc, o.group)
	if stale {
		if cc, err = c.conn(dialCtx, m, o); err != nil {
			return err
		}
		reads, _ = cc.register(reqID, pc, o.group)
	}
	if !pc.bind(cc, reqID) {
		cc.unregister(reqID)
		return nil
	}
	head, tail, giveBack := e.DetachFrame()
	if reads {
		head[0] |= leadWaitedFlag
	}
	frame := transport.Frame{Head: head, Tail: tail}
	c.counters.MessagesSent.Add(1)
	c.counters.BytesSent.Add(int64(frame.Len()))
	held, err := cc.write(reqID, frame, o.burst != 0, o.group)
	if giveBack != nil {
		giveBack() // a frame with a tail is never held: it has left
	}
	if err != nil {
		cc.unregister(reqID)
		if reads {
			cc.leave()
		}
		return err
	}
	if held {
		pc.site().held = true
	}
	return nil
}

// pendingCall is what a connection needs of a registered response
// consumer: a *Future (asynchronous) or a pooled *callWaiter (Call).
// complete is invoked at most once per registration.
type pendingCall interface {
	// site is the operation's call site: the machine send dials, the
	// metadata of a RemoteError.
	site() *callSite
	// bind tells the consumer where it is registered, so that abandoning
	// the operation can unregister it. False: the consumer has completed
	// already (its per-call timer fired during the dial) — don't send.
	bind(cc *clientConn, reqID uint64) bool
	complete(d *wire.Decoder, err error)
}

// callSite is what a waiter knows of the operation it waits for: where it
// went and what to call it, its client span, and — once send has bound
// it — where it is registered. Future and callWaiter embed it, so the two
// ways to wait cannot differ in error text or in the RemoteError they
// build.
type callSite struct {
	machine int
	class   string
	method  string
	label   string

	// span is the client-side span of a sampled operation, nil otherwise;
	// the waiter ends it exactly once.
	span *trace.Span

	cc    *clientConn
	reqID uint64
	// held: the request's frame waits on cc for the burst it was issued
	// in. asks: the caller asks to read the reply itself; reads: register
	// let it, and once sent it does. Only the issuing goroutine writes
	// them, before send; the receive side reads asks.
	held, asks, reads bool
}

func (s *callSite) site() *callSite { return s }

// describe renders the call site for error messages.
func (s *callSite) describe() string {
	name := s.class
	if s.method != "" {
		name += "." + s.method
	}
	if name == "" {
		name = "operation"
	}
	if s.label != "" {
		return fmt.Sprintf("%s [%s] on machine %d", name, s.label, s.machine)
	}
	return fmt.Sprintf("%s on machine %d", name, s.machine)
}

// remoteError is the error of a statusErr response carrying msg.
func (s *callSite) remoteError(msg string) error {
	return &RemoteError{Machine: s.machine, Class: s.class, Method: s.method, Msg: msg}
}

// aborted is the error of an operation given up on because of cause.
func (s *callSite) aborted(cause error) error {
	return fmt.Errorf("rmi: %s aborted: %w", s.describe(), cause)
}

// flush ends the burst the request was held for, on its connection:
// everything held there leaves, in issue order, in one write.
func (s *callSite) flush() {
	if s.held {
		s.held = false
		_, _ = s.cc.write(0, transport.Frame{}, false, 0)
	}
}

// abandon unregisters the request from the connection it was bound to, if
// any: a response that still arrives is dropped and counted as an orphan.
func (s *callSite) abandon() {
	if s.cc != nil {
		s.cc.unregister(s.reqID)
	}
}

// waitResult is the outcome delivered to a synchronous caller.
type waitResult struct {
	d   *wire.Decoder
	err error
}

// callWaiter is the synchronous counterpart of a Future: a reusable
// one-slot channel under the same call site. Waiters recycle through a
// pool — but only when their result was consumed on the normal path;
// abandoned waiters (cancellation, send failure) are left to the garbage
// collector because a late delivery may still land in them.
type callWaiter struct {
	callSite
	ch chan waitResult
}

var waiterPool = sync.Pool{
	New: func() any { return &callWaiter{ch: make(chan waitResult, 1)} },
}

// bind needs no lock: only the goroutine inside callOnce abandons.
func (w *callWaiter) bind(cc *clientConn, reqID uint64) bool {
	w.cc, w.reqID = cc, reqID
	return true
}

func (w *callWaiter) complete(d *wire.Decoder, err error) { w.ch <- waitResult{d: d, err: err} }

// clientConn is one multiplexed connection: a send side shared by callers
// and a receive side matching responses to pending futures and waiters.
// It knows its owner and machine so connection death can evict it from
// the owner's cache — the eviction is what makes reconnection automatic.
//
// One goroutine at a time reads the connection, whoever holds its receive
// role: the connection's receive loop (recvLoop), or a synchronous caller
// reading its own reply (readOwn). Nobody reads a connection whose last
// reply went to a caller that asked to read its own while nothing is
// pending on it, so the next operation on it looks first whether its
// machine went away meanwhile (stale), and if it did, evicts it and
// redials.
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
	// reader holds the receive role. The receive loop parks on wake while
	// it does not, and is given it when a request is registered, or a
	// caller reading its own reply leaves, with requests pending and
	// nobody reading. waited is the request id of the caller reading its
	// own reply.
	reader role
	waited uint64
	wake   chan struct{}
	// lastGroup is the reply group of the collective's member registered
	// last (0: none yet), and groupLo and groupHi are the request ids of
	// its first and last members on this connection.
	lastGroup, groupLo, groupHi uint64

	// wmu orders what leaves on conn. held gathers the request frames of a
	// collective's burst that wait for its flush, in issue order, heldIDs
	// their request ids, and group is the reply group of the frame held
	// last (0: none, or nothing held). The storage is reused from burst to
	// burst.
	wmu     sync.Mutex
	held    transport.Burst
	heldIDs []uint64
	group   uint64
}

// role is who holds a connection's receive role.
type role uint8

const (
	nobody   role = iota
	loop          // the receive loop
	ownReply      // a synchronous caller, reading its own reply
)

func newClientConn(conn transport.Conn, owner *Client, machine int) *clientConn {
	cc := &clientConn{conn: conn, owner: owner, machine: machine, pending: make(map[uint64]pendingCall), wake: make(chan struct{}, 1)}
	go cc.recvLoop()
	return cc
}

// register files pc — of reply group group (0: none) — under reqID. A
// caller that asks to read its reply itself (callSite.asks) is given the
// receive role when nothing else is pending and nobody reads; it reports
// whether the caller reads (callSite.reads). Any other registration with
// nobody reading hands the role to the receive loop. One behind a caller
// reading its own reply, or a request of no group behind a group whose
// last member here is unanswered, frees the server's reader of the
// connection if it runs that caller's method, or one of the group's, in
// this process (handOffRun): the method may be what sends it.
//
// Nobody has read a connection with nobody reading since its last reply,
// so register looks first whether its peer has closed it meanwhile: if
// so, it files nothing, ends the connection as the receive loop would
// have on finding that out, and reports it stale — so an operation after
// its server restarted redials instead of failing.
func (cc *clientConn) register(reqID uint64, pc pendingCall, group uint64) (reads, stale bool) {
	s := pc.site()
	cc.mu.Lock()
	if cc.dead != nil {
		err := cc.dead
		cc.mu.Unlock()
		s.reads = false
		pc.complete(nil, err)
		return false, false
	}
	if cc.reader == nobody && transport.PeerClosed(cc.conn) {
		cc.mu.Unlock()
		cc.fail(fmt.Errorf("rmi: connection lost: %w", transport.ErrClosed))
		return false, true
	}
	behind, lo, hi := cc.reader == ownReply, cc.waited, cc.waited
	switch {
	case group != 0:
		if group != cc.lastGroup {
			cc.lastGroup, cc.groupLo = group, reqID
		}
		cc.groupHi = reqID
	case !behind && len(cc.pending) > 0 && cc.lastGroup != 0:
		_, behind = cc.pending[cc.groupHi]
		lo, hi = cc.groupLo, cc.groupHi
	}
	s.reads = s.asks && cc.reader == nobody && len(cc.pending) == 0
	cc.pending[reqID] = pc
	cc.inflight.Store(int64(len(cc.pending)))
	if s.reads {
		cc.reader, cc.waited = ownReply, reqID
	}
	cc.unlockWaking()
	if behind {
		handOffRun(cc.machine, lo, hi)
	}
	return s.reads, false
}

// unlockWaking hands the receive role to the receive loop if requests are
// pending and nobody reads, and unlocks mu.
func (cc *clientConn) unlockWaking() {
	wake := cc.reader == nobody && len(cc.pending) > 0
	if wake {
		cc.reader = loop
	}
	cc.mu.Unlock()
	if wake {
		cc.signal()
	}
}

// signal wakes the receive loop, if it is parked.
func (cc *clientConn) signal() {
	select {
	case cc.wake <- struct{}{}:
	default: // a wake is on its way already
	}
}

// leave gives up a caller's receive role.
func (cc *clientConn) leave() {
	cc.mu.Lock()
	cc.reader = nobody
	cc.unlockWaking()
}

// readOwn is the receive side of a caller that holds the receive role:
// it receives responses as the receive loop would — its own for w,
// others' for theirs — until its own has come, and gives the role up. A
// connection that ends completes every pending request, w's too.
func (cc *clientConn) readOwn(w *callWaiter) waitResult {
	for len(w.ch) == 0 {
		if _, ok := cc.receive(); !ok {
			break
		}
	}
	cc.leave()
	return <-w.ch
}

// take removes reqID's registration and returns it: whoever takes a
// registration is the one to complete it.
func (cc *clientConn) take(reqID uint64) (pendingCall, bool) {
	cc.mu.Lock()
	pc, ok := cc.pending[reqID]
	delete(cc.pending, reqID)
	cc.inflight.Store(int64(len(cc.pending)))
	cc.mu.Unlock()
	return pc, ok
}

func (cc *clientConn) unregister(reqID uint64) { cc.take(reqID) }

// write is the one place a request leaves the client, and it always
// writes what is held, then frame — so nothing sent on a connection can
// overtake what was issued on it before: issue order per (connection,
// object) holds whoever writes next, a collective's flush (frame nil), a
// later member too long to hold, or somebody's synchronous Call.
//
// With hold, frame — registered as reqID — is held instead while the burst
// has room for another (a page-sized frame never waits, and sends off what
// did; nor does a frame with a borrowed tail, which has left when write
// returns); held reports that. A frame too long to be one is refused alone
// (transport.ErrFrameTooLarge), and nothing is written. Either way its head
// is the connection's from here on. A frame is marked (leadGroupFlag) when its
// successor in the write is of the same reply group (inBurst; 0: none), so
// the server answers each run of one collective's frames in one write, and
// a run is always closed inside the write that opens it.
//
// If the write fails, each held request still registered is completed
// with the error a failed send has always had, and the same error is
// returned for frame's; the transport has given the frames back.
func (cc *clientConn) write(reqID uint64, frame transport.Frame, hold bool, group uint64) (held bool, err error) {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	if frame.Head != nil {
		last := cc.held.Last()
		room, err := cc.held.Add(frame)
		if err != nil {
			return false, fmt.Errorf("rmi: send to machine %d: %w", cc.machine, err)
		}
		if group != 0 && group == cc.group {
			last[0] |= leadGroupFlag
		}
		cc.group = group
		if hold && room {
			cc.heldIDs = append(cc.heldIDs, reqID)
			return true, nil
		}
	}
	if err = cc.held.Flush(cc.conn); err != nil {
		// The caller reports its own request; the connection's end fails
		// the held ones, and the rest, as a failed Recv does: nobody may
		// be reading to find the peer gone.
		cc.take(reqID)
		err = cc.fail(fmt.Errorf("rmi: send to machine %d: %w", cc.machine, err))
	}
	cc.heldIDs, cc.group = cc.heldIDs[:0], 0
	return false, err
}

// recvLoop reads the connection while it holds the receive role.
func (cc *clientConn) recvLoop() {
	park, ok := false, true
	for ok && cc.await(park) {
		park, ok = cc.receive()
	}
}

// await returns true once the receive loop holds the receive role with
// requests pending, and false once the connection is dead. With nothing
// pending it reads on after the reply of a caller that did not ask to
// read its own — so a link that dies under such traffic is found out at
// once, and a burst after a burst needs no wake — but after one that did
// (park) it gives the role up and parks, so that the caller's next call
// can read its own.
func (cc *clientConn) await(park bool) bool {
	cc.mu.Lock()
	for cc.dead == nil {
		if cc.reader == loop {
			if len(cc.pending) > 0 || !park {
				cc.mu.Unlock()
				return true
			}
			cc.reader = nobody
		}
		cc.mu.Unlock()
		<-cc.wake
		cc.mu.Lock()
	}
	cc.mu.Unlock()
	return false
}

// receive reads one response and delivers it, and reports whether it
// was for a caller that asked to read its own; ok is false when the link
// is gone: then every pending call has failed with the machine down.
func (cc *clientConn) receive() (asked, ok bool) {
	frame, err := cc.conn.Recv()
	if err != nil {
		cc.fail(fmt.Errorf("rmi: connection lost: %w", err))
		return false, false
	}
	return cc.deliver(frame), true
}

// deliver completes the request a response frame answers — the one way a
// response reaches its caller, whoever read it — and reports whether that
// caller asked to read its own reply.
func (cc *clientConn) deliver(frame []byte) (asked bool) {
	// The decoder takes ownership of the pooled frame; it travels to the
	// caller on success and is released here on every other path.
	d := wire.GetFrameDecoder(frame)
	reqID := d.Uvarint()
	status := d.Uvarint()
	if d.Err() != nil {
		// Unparseable response header: nothing to match it to. Count it —
		// a nonzero RespDropped means a peer is speaking garbage.
		cc.owner.counters.RespDropped.Add(1)
		d.Release()
		return false
	}
	pc, ok := cc.take(reqID)
	if !ok {
		// Response to an abandoned request (canceled, timed out, or never
		// registered). Expected under cancellation, but counted so
		// operators can see the orphan rate.
		cc.owner.counters.RespOrphaned.Add(1)
		d.Release()
		return false
	}
	asked = pc.site().asks // before complete: a waiter is pooled after it
	if status == statusOK {
		pc.complete(d, nil)
	} else {
		pc.complete(nil, pc.site().remoteError(d.String()))
		d.Release()
	}
	return asked
}

// fail ends the connection after its transport failed and returns the
// error it ended with. If it was closed from this side already — the
// client closed, the failure detector's verdict — that is the cause it
// was closed with. Otherwise the peer is gone: the connection is evicted
// from the owner's cache first (so new operations redial instead of
// landing here), then every pending call fails with the machine down for
// cause, not an untyped transport error.
func (cc *clientConn) fail(cause error) error {
	cc.owner.forget(cc.machine, cc)
	cc.close(&MachineDownError{Machine: cc.machine, Cause: cause})
	cc.mu.Lock()
	err := cc.dead
	cc.mu.Unlock()
	return err
}

// close fails every pending future and closes the socket. A request whose
// frame is still held is among them, once: what is completed is the
// registration, held or sent. The held frames themselves go back to the
// pool by the way they always leave — the flush of the burst that held
// them, which finds the connection closed.
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
	cc.signal() // a parked receive loop ends
	cc.conn.Close()
	for _, pc := range pending {
		pc.complete(nil, cause)
	}
}
