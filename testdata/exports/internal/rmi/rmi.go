// Package rmi stands in for the runtime's: a package-level variable of
// its Method type is a remote method handle.
package rmi

// Method is a handle to the remote method named name.
type Method struct{ name string }

// Declare returns the handle a class's registration would.
func Declare(name string) Method { return Method{name} }

// Name is the handle's wire name.
func (m Method) Name() string { return m.name }

// Call stands in for a surface that takes a method by name.
func Call(method string) {}
