package rmi

import (
	"context"
	"fmt"
	"reflect"
	"sync"

	"oopp/internal/wire"
)

// This file is the typed, generic surface over the RMI runtime — the
// "compiler-generated protocol" the paper assumes, rendered with Go
// generics instead of a compiler pass:
//
//   - RegisterClass[T] declares a class and returns a Class[T] handle
//     whose Method callbacks receive the object already asserted to T.
//   - Class[T].New / NewOn[T] construct remote objects without string
//     class names at the call site.
//   - Invoke[R] / InvokeAsync[R] perform method calls whose single tagged
//     result is decoded and type-checked into R (TypedFuture[R]).
//
// Bulk-data stubs (pages, float slices) keep hand-written ArgEncoders for
// their packed encodings; they still construct through Class[T] handles.

// Class is the typed handle to a registered remote class. T is the Go
// type of the server-side object (usually a pointer type, or an interface
// for inheritable base classes). The handle carries both halves of the
// protocol: typed method registration on the server side and typed
// construction on the client side.
type Class[T any] struct {
	spec *ClassSpec
}

// typedMethod wraps a typed callback into the untyped dispatch form,
// asserting the object to T exactly once at the dispatch boundary.
func typedMethod[T any](class, name string, fn func(obj T, env *Env, args *wire.Decoder, reply *wire.Encoder) error) MethodFunc {
	return func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		t, ok := obj.(T)
		if !ok {
			return fmt.Errorf("rmi: %s.%s: object is %T, class registered for %v",
				class, name, obj, reflect.TypeFor[T]())
		}
		return fn(t, env, args, reply)
	}
}

var (
	classByTypeMu sync.RWMutex
	classByType   = make(map[reflect.Type]*ClassSpec)
)

// RegisterClass declares a remote class with a typed constructor and
// returns its handle, normally from a package init function (the analogue
// of the compiler seeing the class declaration). It panics on duplicate
// names. The type T is also recorded so NewOn[T] can resolve the class
// without naming it.
func RegisterClass[T any](name string, ctor func(env *Env, args *wire.Decoder) (T, error)) *Class[T] {
	spec := Register(name, func(env *Env, args *wire.Decoder) (any, error) {
		return ctor(env, args)
	})
	t := reflect.TypeFor[T]()
	classByTypeMu.Lock()
	if _, dup := classByType[t]; dup {
		classByTypeMu.Unlock()
		panic(fmt.Sprintf("rmi: type %v already registered as a class", t))
	}
	classByType[t] = spec
	classByTypeMu.Unlock()
	return &Class[T]{spec: spec}
}

// ExtendClass registers a derived class that inherits every method of
// base (the paper's process inheritance, §3). The derived class has its
// own object type U — which must satisfy whatever base's methods assert —
// its own constructor, and may add methods (an inherited name panics, as
// in Extend).
func ExtendClass[U any, T any](base *Class[T], name string, ctor func(env *Env, args *wire.Decoder) (U, error)) *Class[U] {
	spec := base.spec.Extend(name, func(env *Env, args *wire.Decoder) (any, error) {
		return ctor(env, args)
	})
	t := reflect.TypeFor[U]()
	classByTypeMu.Lock()
	if _, dup := classByType[t]; dup {
		classByTypeMu.Unlock()
		panic(fmt.Sprintf("rmi: type %v already registered as a class", t))
	}
	classByType[t] = spec
	classByTypeMu.Unlock()
	return &Class[U]{spec: spec}
}

// Name returns the registered class name.
func (c *Class[T]) Name() string { return c.spec.Name() }

// Method registers a serial method: invocations are delivered through the
// object's mailbox and execute one at a time in arrival order. The
// callback receives the object as T — no manual assertion. It returns the
// handle for chaining.
func (c *Class[T]) Method(name string, fn func(obj T, env *Env, args *wire.Decoder, reply *wire.Encoder) error) *Class[T] {
	c.spec.Method(name, typedMethod(c.spec.Name(), name, fn))
	return c
}

// ConcurrentMethod registers a method that executes outside the object's
// mailbox, concurrently with the object's serial stream. The object is
// responsible for synchronizing any state such a method touches.
func (c *Class[T]) ConcurrentMethod(name string, fn func(obj T, env *Env, args *wire.Decoder, reply *wire.Encoder) error) *Class[T] {
	c.spec.ConcurrentMethod(name, typedMethod(c.spec.Name(), name, fn))
	return c
}

// New constructs an object of this class on machine m — the paper's
// "new(machine m) Class(args)" with the class resolved at compile time.
// args may be nil for nullary constructors.
func (c *Class[T]) New(ctx context.Context, client *Client, m int, args ArgEncoder, opts ...CallOption) (Ref, error) {
	return client.New(ctx, m, c.spec.Name(), args, opts...)
}

// classSpecFor resolves the ClassSpec registered for type T, accepting
// either the exact registered type or T's pointer type (so value types
// can be used as the type argument: NewOn[Counter] for a *Counter class).
func classSpecFor[T any]() (*ClassSpec, error) {
	t := reflect.TypeFor[T]()
	classByTypeMu.RLock()
	spec, ok := classByType[t]
	if !ok {
		spec, ok = classByType[reflect.PointerTo(t)]
	}
	classByTypeMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: no class registered for type %v", ErrNoSuchClass, t)
	}
	return spec, nil
}

// SpecFor resolves the ClassSpec registered for type T (accepting the
// pointer type too, like NewOn). It is the resolver the typed
// collection layer builds its Spawn[T] on.
func SpecFor[T any]() (*ClassSpec, error) { return classSpecFor[T]() }

// NewOn constructs an object of the class registered for type T on
// machine m, encoding args with the tagged generic encoding — the typed
// rendering of "new(machine m) T(args...)". The class's constructor must
// decode its arguments with the matching tagged decoder (args.Anys or
// args.Any); classes with packed constructor encodings construct through
// their Class[T].New handle instead.
func NewOn[T any](ctx context.Context, client *Client, m int, args ...any) (Ref, error) {
	spec, err := classSpecFor[T]()
	if err != nil {
		return Ref{}, err
	}
	return client.New(ctx, m, spec.Name(), AnyArgs(args...))
}

// Invoke calls a method whose arguments and single result use the tagged
// generic encoding, blocking until the decoded result of type R arrives.
// A result of a different dynamic type is an error, not a zero value.
func Invoke[R any](ctx context.Context, client *Client, ref Ref, method string, args ...any) (R, error) {
	return InvokeAsync[R](ctx, client, ref, method, args...).Wait(ctx)
}

// InvokeAsync begins a typed method invocation and returns its typed
// future immediately — the §4 send-loop half.
func InvokeAsync[R any](ctx context.Context, client *Client, ref Ref, method string, args ...any) *TypedFuture[R] {
	return &TypedFuture[R]{fut: client.CallAsync(ctx, ref, method, AnyArgs(args...))}
}

// InvokeVoid calls a tagged-encoding method with no result.
func InvokeVoid(ctx context.Context, client *Client, ref Ref, method string, args ...any) error {
	d, err := client.Call(ctx, ref, method, AnyArgs(args...))
	d.Release()
	return err
}
