package rmi

import (
	"context"
	"fmt"
	"reflect"

	"oopp/internal/wire"
)

// This file is the typed, generic surface over the RMI runtime — the
// "compiler-generated protocol" the paper assumes, rendered with Go
// generics instead of a compiler pass:
//
//   - RegisterClass declares a class from its constructor's argument codec
//     and returns a Class[T, C] handle whose method callbacks receive the
//     object already asserted to T.
//   - DeclareOp registers a method from its argument and result codecs
//     and a body over decoded values, and returns its Op handle: the stub's
//     Call and the body's arguments come from the one declaration.
//   - Class[T, C].Declare registers a method that reads and writes its own
//     bytes (the bulk paths, which borrow or lend frames) and returns its
//     Method handle.
//   - Class[T, C].New constructs a remote object from a C, through the
//     codec the server decodes it with.

// Class is the typed handle to a registered remote class. T is the Go
// type of the server-side object (usually a pointer type, or an interface
// for inheritable base classes) and C the type of its constructor's
// argument. The handle carries both halves of the protocol: typed method
// registration on the server side and typed construction on the client
// side.
type Class[T, C any] struct {
	spec *ClassSpec
	arg  wire.Codec[C]
}

// RegisterClass declares a remote class from its constructor's argument
// codec and a constructor over the decoded argument, and returns its
// handle, normally from a package-level declaration (the analogue of the
// compiler seeing the class declaration). The server decodes the whole
// argument before the constructor runs, so a request whose argument does
// not decode creates no object. It panics on duplicate names.
func RegisterClass[T, C any](name string, arg wire.Codec[C], ctor func(env *Env, a C) (T, error)) *Class[T, C] {
	return &Class[T, C]{spec: Register(name, func(env *Env, args *wire.Decoder) (any, error) {
		a, err := arg.Get(args)
		if err != nil {
			return nil, fmt.Errorf("argument decode: %w", err)
		}
		return ctor(env, a)
	}), arg: arg}
}

// ExtendClass registers a derived class, as RegisterClass does, that
// inherits every method of base (the paper's process inheritance, §3). The
// derived class has its own object type U — which must satisfy whatever
// base's methods assert — its own constructor and argument codec, and may
// add methods (an inherited name panics like any duplicate).
func ExtendClass[U, D, T, C any](base *Class[T, C], name string, arg wire.Codec[D], ctor func(env *Env, a D) (U, error)) *Class[U, D] {
	derived := RegisterClass(name, arg, ctor)
	derived.spec.inherit(base.spec)
	return derived
}

// Name returns the registered class name.
func (c *Class[T, C]) Name() string { return c.spec.Name() }

// Declare registers a serial method — invocations are delivered through
// the object's mailbox and execute one at a time in arrival order, the
// callback receiving the object as T — and returns its handle.
func (c *Class[T, C]) Declare(name string, fn func(obj T, env *Env, args *wire.Decoder, reply *wire.Encoder) error) Method {
	return declare(c.spec, name, fn, false)
}

// DeclareConcurrent registers a method that executes outside the object's
// mailbox, concurrently with the object's serial stream, and returns its
// handle. The object is responsible for synchronizing any state such a
// method touches.
func (c *Class[T, C]) DeclareConcurrent(name string, fn func(obj T, env *Env, args *wire.Decoder, reply *wire.Encoder) error) Method {
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

// DeclareOp registers a serial method of class from the codecs of its
// argument and its result and a body over decoded values, and returns its
// handle: the stub's Call and the body's argument come from this one
// declaration. The server decodes the whole argument before the body
// runs, so a request whose argument does not decode is refused with the
// object untouched. (It is a function because a Go method takes no type
// parameters of its own.)
func DeclareOp[T, C, A, R any](class *Class[T, C], name string, arg wire.Codec[A], res wire.Codec[R], body func(obj T, env *Env, a A) (R, error)) Op[A, R] {
	return declareOp(class, name, arg, res, body, false)
}

// DeclareConcurrentOp is DeclareOp for a method that executes outside the
// object's mailbox, as DeclareConcurrent's does.
func DeclareConcurrentOp[T, C, A, R any](class *Class[T, C], name string, arg wire.Codec[A], res wire.Codec[R], body func(obj T, env *Env, a A) (R, error)) Op[A, R] {
	return declareOp(class, name, arg, res, body, true)
}

func declareOp[T, C, A, R any](class *Class[T, C], name string, arg wire.Codec[A], res wire.Codec[R], body func(obj T, env *Env, a A) (R, error), concurrent bool) Op[A, R] {
	m := declare(class.spec, name, func(obj T, env *Env, args *wire.Decoder, reply *wire.Encoder) error {
		a, err := arg.Get(args)
		if err != nil {
			return fmt.Errorf("argument decode: %w", err)
		}
		r, err := body(obj, env, a)
		if err != nil {
			return err
		}
		res.Put(reply, r)
		return nil
	}, concurrent)
	return Op[A, R]{Method: m, arg: arg, res: res}
}

// Op is a method declared with its codecs (DeclareOp). Call and CallAsync
// encode the argument and decode the result through the codecs the
// server uses. It is its Method too, whose Name the by-name surfaces
// (FanOut, the collection collectives) take.
type Op[A, R any] struct {
	Method
	arg wire.Codec[A]
	res wire.Codec[R]
}

// Call executes the method on ref with argument a and waits for its
// decoded result.
func (o Op[A, R]) Call(ctx context.Context, client *Client, ref Ref, a A, opts ...CallOption) (R, error) {
	d, err := client.Call(ctx, ref, o.name, func(e *wire.Encoder) error {
		o.arg.Put(e, a)
		return nil
	}, opts...)
	if err != nil {
		var zero R
		return zero, err
	}
	r, err := o.res.Get(d)
	d.Release()
	return r, err
}

// CallAsync begins the method on ref with argument a and returns its
// future — the §4 send-loop half of Call.
func (o Op[A, R]) CallAsync(ctx context.Context, client *Client, ref Ref, a A, opts ...CallOption) TypedFuture[R] {
	return TypedFuture[R]{client.CallAsync(ctx, ref, o.name, func(e *wire.Encoder) error {
		o.arg.Put(e, a)
		return nil
	}, opts...), o.res}
}

// PutArgs appends a to e as the method's argument, for a collective that
// encodes each member's request itself.
func (o Op[A, R]) PutArgs(e *wire.Encoder, a A) { o.arg.Put(e, a) }

// New constructs an object of this class on machine m from argument a —
// the paper's "new(machine m) Class(args)" with the class resolved at
// compile time.
func (c *Class[T, C]) New(ctx context.Context, client *Client, m int, a C, opts ...CallOption) (Ref, error) {
	return client.New(ctx, m, c.spec.Name(), func(e *wire.Encoder) error {
		c.arg.Put(e, a)
		return nil
	}, opts...)
}

// PutArgs appends a to e as the constructor's argument, for a spawn that
// encodes each member's request itself.
func (c *Class[T, C]) PutArgs(e *wire.Encoder, a C) { c.arg.Put(e, a) }
