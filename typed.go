package oopp

import (
	"context"
	"time"

	"oopp/internal/collection"
	"oopp/internal/rmi"
)

// This file re-exports the typed, context-aware RMI surface at the facade
// level, so user programs can stay on the oopp package for the common
// cases: typed construction (NewOn), typed invocation (Invoke/InvokeAsync
// returning decoded results), and per-call options.

// Class is the typed handle to a registered remote class: method
// registration on the server side, construction on the client side.
type Class[T any] = rmi.Class[T]

// RegisterClass declares a remote class with a typed constructor and
// returns its handle — the registration half of the typed surface.
// Method callbacks receive the object already asserted to T.
func RegisterClass[T any](name string, ctor func(env *Env, args *Decoder) (T, error)) *Class[T] {
	return rmi.RegisterClass(name, ctor)
}

// ExtendClass registers a derived class that inherits every method of
// base — the paper's process inheritance (§3) — under its own Go type.
func ExtendClass[U any, T any](base *Class[T], name string, ctor func(env *Env, args *Decoder) (U, error)) *Class[U] {
	return rmi.ExtendClass(base, name, ctor)
}

// TypedFuture is the generic, decoded view of a Future: Wait(ctx) returns
// the call's single tagged result as R.
type TypedFuture[R any] struct{ inner *rmi.TypedFuture[R] }

// Wait blocks (honoring ctx) and returns the decoded result of type R.
func (t TypedFuture[R]) Wait(ctx context.Context) (R, error) { return t.inner.Wait(ctx) }

// Done returns the underlying completion channel for select statements.
func (t TypedFuture[R]) Done() <-chan struct{} { return t.inner.Done() }

// Future returns the untyped future, for WaitAll-style aggregation.
func (t TypedFuture[R]) Future() *Future { return t.inner.Future() }

// NewOn constructs an object of the class registered for type T on
// machine m — the paper's "new(machine m) T(args...)" with the class
// resolved from the type argument instead of a string.
func NewOn[T any](ctx context.Context, client *Client, m int, args ...any) (Ref, error) {
	return rmi.NewOn[T](ctx, client, m, args...)
}

// Invoke calls a tagged-encoding method and blocks for its decoded result
// of type R. A result of a different dynamic type is an error, not a
// silent zero value.
func Invoke[R any](ctx context.Context, client *Client, ref Ref, method string, args ...any) (R, error) {
	return rmi.Invoke[R](ctx, client, ref, method, args...)
}

// InvokeAsync begins a typed invocation and returns its future — the §4
// send-loop half of Invoke.
func InvokeAsync[R any](ctx context.Context, client *Client, ref Ref, method string, args ...any) TypedFuture[R] {
	return TypedFuture[R]{inner: rmi.InvokeAsync[R](ctx, client, ref, method, args...)}
}

// InvokeVoid calls a tagged-encoding method with no result.
func InvokeVoid(ctx context.Context, client *Client, ref Ref, method string, args ...any) error {
	return rmi.InvokeVoid(ctx, client, ref, method, args...)
}

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

// Spawn constructs a collection of the class registered for type T, one
// member per slot of dist, with tagged constructor args — the
// collective form of NewOn[T].
func Spawn[T any](ctx context.Context, client *Client, dist Distribution, args ...any) (*Collection[T], error) {
	return collection.Spawn[T](ctx, client, dist, args...)
}

// SpawnClass constructs a collection through a typed class handle with
// per-member packed constructor arguments.
func SpawnClass[T any](ctx context.Context, client *Client, dist Distribution, class *Class[T], args MemberEncoder, opts ...CallOption) (*Collection[T], error) {
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
