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
//     whose method callbacks receive the object already asserted to T.
//   - Class[T].Declare registers a method and returns its Method
//     handle, the one value the server body and every caller name.
//   - Class[T].New / NewOn[T] construct remote objects without string
//     class names at the call site.
//   - Invoke[R] / InvokeAsync[R] call a method through its handle, its
//     single tagged result decoded and type-checked into R (TypedFuture[R]).
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

var (
	classByTypeMu sync.RWMutex
	classByType   = make(map[reflect.Type]*ClassSpec)
)

// RegisterClass declares a remote class with a typed constructor and
// returns its handle, normally from a package-level declaration (the
// analogue of the compiler seeing the class declaration). It panics on
// duplicate names. The type T is also recorded so NewOn[T] can resolve the
// class without naming it.
func RegisterClass[T any](name string, ctor func(env *Env, args *wire.Decoder) (T, error)) *Class[T] {
	spec := Register(name, func(env *Env, args *wire.Decoder) (any, error) {
		return ctor(env, args)
	})
	return &Class[T]{spec: recordClass(reflect.TypeFor[T](), spec)}
}

// ExtendClass registers a derived class, as RegisterClass does, that
// inherits every method of base (the paper's process inheritance, §3). The
// derived class has its own object type U — which must satisfy whatever
// base's methods assert — its own constructor, and may add methods (an
// inherited name panics like any duplicate).
func ExtendClass[U any, T any](base *Class[T], name string, ctor func(env *Env, args *wire.Decoder) (U, error)) *Class[U] {
	derived := RegisterClass(name, ctor)
	derived.spec.inherit(base.spec)
	return derived
}

// recordClass records spec as the class of type t and returns it. It
// panics if t already has a class.
func recordClass(t reflect.Type, spec *ClassSpec) *ClassSpec {
	classByTypeMu.Lock()
	defer classByTypeMu.Unlock()
	if _, dup := classByType[t]; dup {
		panic(fmt.Sprintf("rmi: type %v already registered as a class", t))
	}
	classByType[t] = spec
	return spec
}

// Name returns the registered class name.
func (c *Class[T]) Name() string { return c.spec.Name() }

// Declare registers a serial method — invocations are delivered through
// the object's mailbox and execute one at a time in arrival order, the
// callback receiving the object as T — and returns its handle.
func (c *Class[T]) Declare(name string, fn func(obj T, env *Env, args *wire.Decoder, reply *wire.Encoder) error) Method {
	return declare(c.spec, name, fn, false)
}

// DeclareConcurrent registers a method that executes outside the object's
// mailbox, concurrently with the object's serial stream, and returns its
// handle. The object is responsible for synchronizing any state such a
// method touches.
func (c *Class[T]) DeclareConcurrent(name string, fn func(obj T, env *Env, args *wire.Decoder, reply *wire.Encoder) error) Method {
	return declare(c.spec, name, fn, true)
}

// declare registers fn as class's method name in the untyped dispatch
// form, which asserts the object to T exactly once at the dispatch
// boundary, and returns the method's handle.
func declare[T any](class *ClassSpec, name string, fn func(obj T, env *Env, args *wire.Decoder, reply *wire.Encoder) error, concurrent bool) Method {
	className := class.Name()
	class.addMethod(name, func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		t, ok := obj.(T)
		if !ok {
			return fmt.Errorf("rmi: %s.%s: object is %T, class registered for %v",
				className, name, obj, reflect.TypeFor[T]())
		}
		return fn(t, env, args, reply)
	}, concurrent)
	return Method{name}
}

// Method is a remote method declared once: Declare registers its server
// body and returns it, and every stub, peer call and fan-out names the
// method through it, so a method that nothing calls is a handle that
// nothing references. On the wire it is its name, as a call by name is,
// and a class derived from the declaring one answers it too. It carries
// no class type: Call takes an untyped Ref, so a type parameter here
// would check nothing.
type Method struct{ name string }

// Name is the method's wire name, for the surfaces that take a method by
// name (FanOut, the collection collectives).
func (m Method) Name() string { return m.name }

// Call executes the method on ref and waits for its reply, as
// Client.Call does.
func (m Method) Call(ctx context.Context, client *Client, ref Ref, args ArgEncoder, opts ...CallOption) (*wire.Decoder, error) {
	return client.Call(ctx, ref, m.name, args, opts...)
}

// CallAsync begins the method on ref and returns its future, as
// Client.CallAsync does.
func (m Method) CallAsync(ctx context.Context, client *Client, ref Ref, args ArgEncoder, opts ...CallOption) *Future {
	return client.CallAsync(ctx, ref, m.name, args, opts...)
}

// New constructs an object of this class on machine m — the paper's
// "new(machine m) Class(args)" with the class resolved at compile time.
// args may be nil for nullary constructors.
func (c *Class[T]) New(ctx context.Context, client *Client, m int, args ArgEncoder, opts ...CallOption) (Ref, error) {
	return client.New(ctx, m, c.spec.Name(), args, opts...)
}

// SpecFor resolves the ClassSpec registered for type T, accepting either
// the exact registered type or T's pointer type (so value types can be
// used as the type argument: NewOn[Counter] for a *Counter class). NewOn
// and the typed collection layer's Spawn[T] resolve their class by it.
func SpecFor[T any]() (*ClassSpec, error) {
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

// NewOn constructs an object of the class registered for type T on
// machine m, encoding args with the tagged generic encoding — the typed
// rendering of "new(machine m) T(args...)". The class's constructor must
// decode its arguments with the matching tagged decoder (args.Anys or
// args.Any); classes with packed constructor encodings construct through
// their Class[T].New handle instead.
func NewOn[T any](ctx context.Context, client *Client, m int, args ...any) (Ref, error) {
	spec, err := SpecFor[T]()
	if err != nil {
		return Ref{}, err
	}
	return client.New(ctx, m, spec.Name(), AnyArgs(args...))
}

// Invoke calls m with arguments and a single result in the tagged generic
// encoding, blocking until the decoded result of type R arrives. A result
// of a different dynamic type is an error, not a zero value.
func Invoke[R any](ctx context.Context, client *Client, ref Ref, m Method, args ...any) (R, error) {
	return InvokeAsync[R](ctx, client, ref, m, args...).Wait(ctx)
}

// InvokeAsync begins a typed invocation of m and returns its typed future
// immediately — the §4 send-loop half.
func InvokeAsync[R any](ctx context.Context, client *Client, ref Ref, m Method, args ...any) *TypedFuture[R] {
	return &TypedFuture[R]{fut: m.CallAsync(ctx, client, ref, AnyArgs(args...))}
}

// InvokeVoid calls a tagged-encoding method with no result.
func InvokeVoid(ctx context.Context, client *Client, ref Ref, m Method, args ...any) error {
	d, err := m.Call(ctx, client, ref, AnyArgs(args...))
	d.Release()
	return err
}
