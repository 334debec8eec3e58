// Package rmi stands in for the runtime's: a package-level variable of
// its Method type, or of an instance of its Op type, is a remote method
// handle.
package rmi

// Method is a handle to the remote method named name.
type Method struct{ name string }

// Declare returns the handle a class's registration would.
func Declare(name string) Method { return Method{name} }

// Name is the handle's wire name.
func (m Method) Name() string { return m.name }

// Call stands in for a surface that takes a method by name.
func Call(method string) {}

// New stands in for a surface that takes a class by name.
func New(class string) {}

// Op is a handle to a remote method with the types of its argument and
// result.
type Op[A, R any] struct{ Method }

// DeclareOp returns the handle a typed declaration would.
func DeclareOp[A, R any](name string) Op[A, R] { return Op[A, R]{Method{name}} }
