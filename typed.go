package oopp

import (
	"context"
	"time"

	"oopp/internal/collection"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// This file re-exports the typed, context-aware RMI surface at the facade
// level, so user programs can stay on the oopp package for the common
// cases: a class, its methods declared with their codecs (DeclareOp) and
// called through the Op handle that returns, construction, options.

// Class is the typed handle to a registered remote class whose objects are
// Ts constructed from a C: method registration on the server side,
// construction on the client side.
type Class[T, C any] = rmi.Class[T, C]

// Method is a remote method's handle, returned by Class[T, C].Declare.
type Method = rmi.Method

// Op is a remote method declared with the codecs of its argument and its
// result (DeclareOp): its Call takes an A and returns an R.
type Op[A, R any] = rmi.Op[A, R]

// Codec is the encoding of one value type: Put appends a value, Get reads
// one back.
type Codec[T any] = wire.Codec[T]

// TypedFuture is the pending result of an Op's CallAsync: Wait(ctx)
// returns it decoded as R.
type TypedFuture[R any] = rmi.TypedFuture[R]

// RegisterClass declares a remote class from its constructor's argument
// codec and a constructor over the decoded argument, and returns its
// handle — the registration half of the typed surface. Class.New encodes
// through the same codec. Method callbacks receive the object already
// asserted to T.
func RegisterClass[T, C any](name string, arg Codec[C], ctor func(env *Env, a C) (T, error)) *Class[T, C] {
	return rmi.RegisterClass(name, arg, ctor)
}

// ExtendClass registers a derived class that inherits every method of
// base — the paper's process inheritance (§3) — under its own Go type and
// constructor.
func ExtendClass[U, D, T, C any](base *Class[T, C], name string, arg Codec[D], ctor func(env *Env, a D) (U, error)) *Class[U, D] {
	return rmi.ExtendClass(base, name, arg, ctor)
}

// DeclareOp registers a serial method of class from the codecs of its
// argument and its result and a body over decoded values, and returns
// its Op: the stub's call and the body's argument come from this one
// declaration.
func DeclareOp[T, C, A, R any](class *Class[T, C], name string, arg Codec[A], res Codec[R], body func(obj T, env *Env, a A) (R, error)) Op[A, R] {
	return rmi.DeclareOp(class, name, arg, res, body)
}

// CodecOf builds a Codec from a writer and a reader of T's fields in
// order; see wire.CodecOf.
func CodecOf[T any](put func(e *Encoder, v T), get func(d *Decoder) T) Codec[T] {
	return wire.CodecOf(put, get)
}

// The scalar codecs: an int, a string, no value.
var (
	IntCodec    = wire.Int
	StringCodec = wire.String
	VoidCodec   = wire.Void
)

// ---- Typed distributed collections -----------------------------------------
//
// Collection[T] is the paper's "FFT * fft[N]" rendered generically: a
// typed distributed collection of member objects with concurrent
// broadcast, combining reductions and owner-computes iteration. See
// internal/collection's package doc for the model; everything below is
// a direct re-export.

type (
	// Collection is a typed distributed collection of member objects.
	Collection[T any] = collection.Collection[T]
	// Member identifies one collection element: index, owning machine,
	// remote pointer.
	Member = collection.Member
	// MemberEncoder encodes one member's call arguments.
	MemberEncoder = collection.MemberEncoder
	// Distribution places collection members over machines (Block,
	// Cyclic, OnMachines).
	Distribution = collection.Distribution
	// MemberError wraps one member's failure inside a collective
	// operation's errors.Join aggregate.
	MemberError = rmi.MemberError
)

// Block lays members out in contiguous runs over machines.
func Block(members, machines int) Distribution { return collection.Block(members, machines) }

// Cyclic deals members to machines round-robin.
func Cyclic(members, machines int) Distribution { return collection.Cyclic(members, machines) }

// OnMachines places one member per listed machine, in order.
func OnMachines(machines ...int) Distribution { return collection.OnMachines(machines...) }

// SpawnClass constructs a collection through a typed class handle, args
// giving each member its constructor argument (nil: C's zero value).
func SpawnClass[T, C any](ctx context.Context, client *Client, dist Distribution, class *Class[T, C], args func(m Member) C, opts ...CallOption) (*Collection[T], error) {
	return collection.SpawnClass(ctx, client, dist, class, args, opts...)
}

// AttachCollection wraps existing remote pointers into a collection
// without constructing anything.
func AttachCollection[T any](client *Client, refs []Ref) *Collection[T] {
	return collection.FromRefs[T](client, refs)
}

// Reduce invokes method on every member concurrently and combines the
// decoded per-member results with the monoid combine, in member order.
func Reduce[T, R any](ctx context.Context, c *Collection[T], method string, args MemberEncoder, dec func(m Member, d *Decoder) (R, error), combine func(R, R) R, opts ...CallOption) (R, error) {
	return collection.Reduce(ctx, c, method, args, dec, combine, opts...)
}

// MapIndexed runs fn once per member, concurrently with the
// collection's window bound — owner-computes iteration with member
// index and locality info.
func MapIndexed[T, R any](ctx context.Context, c *Collection[T], fn func(ctx context.Context, m Member) (R, error)) ([]R, error) {
	return collection.MapIndexed(ctx, c, fn)
}

// WithTimeout bounds a remote operation (dial, send, remote execution,
// response) to d. The deadline is armed at issue time and travels with
// the future.
func WithTimeout(d time.Duration) CallOption { return rmi.WithTimeout(d) }

// WithDeadline is WithTimeout anchored at an absolute time.
func WithDeadline(t time.Time) CallOption { return rmi.WithDeadline(t) }

// WithRetryDial retries a failed dial up to n additional times before
// failing the operation. Only dialing is retried; requests are never
// resent.
func WithRetryDial(n int) CallOption { return rmi.WithRetryDial(n) }

// WithRetryOverload re-issues a call shed by admission control, up to
// budget extra attempts, waiting out the server's RetryAfter hint (or
// an exponential fallback) with ±25% jitter between attempts, capped at
// maxWait when maxWait > 0. Only Call honors it — construction is not
// idempotent, so New never retries.
func WithRetryOverload(budget int, maxWait time.Duration) CallOption {
	return rmi.WithRetryOverload(budget, maxWait)
}

// WithLabel attaches a trace label that appears in timeout and
// cancellation errors.
func WithLabel(label string) CallOption { return rmi.WithLabel(label) }
