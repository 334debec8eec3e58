package rmi

import (
	"context"
	"time"
)

// CallOption tunes one remote operation (construction, call, delete).
// Options compose with the context.Context passed to the same operation:
// the context carries cancellation and caller-scoped deadlines, options
// carry per-call policy that should travel with the future even when the
// caller waits on it later with a different context.
//
// An option is a value transform (rather than a pointer mutator) so that
// resolving the common no-option case never forces the option set onto
// the heap — the zero-allocation hot path resolves options on the stack.
type CallOption func(callOptions) callOptions

// callOptions is the resolved option set for one operation.
type callOptions struct {
	timeout       time.Duration // per-call deadline, enforced even on async futures
	retryDial     int           // extra dial attempts on dial failure
	retryOverload int           // extra attempts when the server sheds with ErrOverloaded
	retryMaxWait  time.Duration // cap on each overload backoff wait (0 = hint/backoff uncapped)
	label         string        // trace label woven into errors and drop accounting
	probe         bool          // failure-detector probe: bypass the down-machine fast fail
	sampled       bool          // WithSampled: force span capture (minting a trace if the context has none)
	prio          Priority      // admission class stamped on the wire header
	prioSet       bool          // WithPriority was given; otherwise the op's default class applies
	burst         uint64        // inBurst: the collective the request is one of (0: none); its frame may wait on its connection for the burst's flush
	group         uint64        // inBurst: the reply group the request joins (0: none, its reply leaves by itself)
}

// priority resolves the admission class for an operation whose default
// class is def: an explicit WithPriority wins, otherwise the default.
func (o *callOptions) priority(def Priority) Priority {
	if o.prioSet {
		return o.prio
	}
	return def
}

// WithProbe marks an operation as a health probe: it may dial a machine
// currently marked down by the failure detector — that is how recovery
// is detected. The heartbeat monitor stamps it on its pings, and
// cluster.WaitReady on its readiness pings, so a machine that restarts
// after the detector stopped can still be revived (a successful probe
// dial clears the down mark). Normal traffic should not use it: the
// fast-fail on down machines is what keeps a dead machine from costing
// every caller a timeout.
func WithProbe() CallOption {
	return func(o callOptions) callOptions { o.probe = true; return o }
}

// WithPriority stamps the operation's admission class into the request's
// wire header. The server budgets in-flight work per class
// (AdmissionConfig), so priorities decide who is shed first under
// overload — they do not reorder work already accepted. Defaults when the
// option is absent: Ping, Stat and Delete travel PrioHigh (control
// plane), Call and New travel PrioNormal. Stamp batch traffic — page
// sweeps, bulk reductions, backfills — with PrioBulk so a storm of it
// exhausts only the bulk budget and heartbeats keep landing.
func WithPriority(p Priority) CallOption {
	return func(o callOptions) callOptions {
		if p < NumPriorities {
			o.prio, o.prioSet = p, true
		}
		return o
	}
}

// inBurst marks the operations of one collective of c, issued under ctx, as
// its issue burst: a send loop that flushes before it waits (SplitLoop),
// the one case in which send may hold a request's frame on its connection
// so that the burst leaves in one write per machine (clientConn.write).
// Each call names a new collective, so frames of two collectives that
// leave in one write never form one reply group. It is not exported: an
// operation issued by itself must leave at once — the overlap of issue,
// compute, then wait depends on it.
//
// It also decides the members' reply group, by the one rule there is — a
// reply waits only for siblings that cannot strand it:
//   - a request with a deadline, its own or its context's, joins no group,
//     so its timeout fails it alone;
//   - each member of a spawn whose caller can give up is its own group (no
//     group, on the wire): the spawn waits for a hung construction only as
//     long as its grace;
//   - otherwise the request joins its collective's group.
func (c *Client) inBurst(ctx context.Context, o callOptions, spawn bool) callOptions {
	o.burst = c.collectives.Add(1)
	if ctx == nil {
		ctx = context.Background()
	}
	_, deadline := ctx.Deadline()
	switch {
	case deadline || o.timeout > 0:
	case spawn && ctx.Done() != nil:
	default:
		o.group = o.burst
	}
	return o
}

func resolveOptions(opts []CallOption) callOptions {
	var o callOptions
	for _, fn := range opts {
		if fn != nil {
			o = fn(o)
		}
	}
	return o
}

// WithTimeout bounds the whole operation (dial, send, remote execution,
// response) to d. Unlike a context deadline, the timeout is armed at issue
// time and travels with the Future, so a §4 send-loop can stamp deadlines
// on calls it will only Wait on much later.
func WithTimeout(d time.Duration) CallOption {
	return func(o callOptions) callOptions { o.timeout = d; return o }
}

// WithDeadline is WithTimeout anchored at an absolute time. A deadline
// already in the past fails the operation immediately rather than
// silently disabling the bound.
func WithDeadline(t time.Time) CallOption {
	return func(o callOptions) callOptions {
		o.timeout = time.Until(t)
		if o.timeout <= 0 {
			o.timeout = time.Nanosecond
		}
		return o
	}
}

// WithRetryDial retries a failed dial up to n additional times (with a
// short backoff) before failing the operation. Only dialing is retried —
// a request that may have reached the remote machine is never resent,
// preserving the paper's exactly-once mailbox semantics.
func WithRetryDial(n int) CallOption {
	return func(o callOptions) callOptions {
		if n > 0 {
			o.retryDial = n
		}
		return o
	}
}

// WithRetryOverload re-issues a call the server shed at admission with
// the typed overload error, up to budget extra attempts. Between
// attempts the caller waits out the server's RetryAfter hint when the
// error carries one (an OverloadedError made with NewOverloadedError),
// falling back to exponential backoff from 5ms; either wait is jittered
// by ±25% so a shed burst of callers does not return in lockstep, and
// capped at maxWait when maxWait > 0.
//
// Only Call honors the option: a shed request was rejected before its
// method ran, so re-issuing is safe for any method, but New never
// retries — construction is not idempotent, and a duplicate attempt
// could leak a second process if the first outcome was lost rather than
// shed. The context still bounds the whole retried operation; each
// individual attempt is bounded by WithTimeout as usual.
func WithRetryOverload(budget int, maxWait time.Duration) CallOption {
	return func(o callOptions) callOptions {
		if budget > 0 {
			o.retryOverload = budget
			o.retryMaxWait = maxWait
		}
		return o
	}
}

// WithSampled turns span capture on for this operation. If the caller's
// context already carries a trace (trace.FromContext), that trace is
// promoted to sampled from this hop on; otherwise a fresh sampled trace
// is minted with this call as its root. Either way the trace context
// rides the request's wire header, the server restores it into the
// handler's Env.Ctx, and every downstream peer hop extends the same
// trace — one WithSampled at the edge lights up the whole causal tree.
// Sampling is what allocates: unsampled calls stay on the
// zero-allocation hot path.
func WithSampled() CallOption {
	return func(o callOptions) callOptions { o.sampled = true; return o }
}

// WithLabel attaches a trace label to the operation. The label appears in
// timeout/cancellation errors, making a failed future attributable when
// hundreds are in flight.
func WithLabel(label string) CallOption {
	return func(o callOptions) callOptions { o.label = label; return o }
}
