package rmi

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"oopp/internal/wire"
)

// Ref is a remote pointer. See wire.Ref for the representation; the alias
// lets refs be encoded like any other value without an import cycle.
type Ref = wire.Ref

// Constructor builds a server-side object from encoded constructor
// arguments. It corresponds to the class constructor in the paper's
// "new(machine k) T(args...)".
type Constructor func(env *Env, args *wire.Decoder) (any, error)

// MethodFunc executes a method on a server-side object. Arguments are read
// from args in the order the stub wrote them; results are written to
// reply. This pair of reader and writer is the "protocol generated by the
// compiler from the class description".
type MethodFunc func(obj any, env *Env, args *wire.Decoder, reply *wire.Encoder) error

// Destroyer is implemented by objects that need destructor logic beyond
// process termination (closing files, releasing disks, shutting down
// dependent processes).
type Destroyer interface {
	OnDestroy(env *Env) error
}

type methodEntry struct {
	name       string
	full       string // "class.method", precomputed so telemetry keys never concatenate on the hot path
	index      int    // numbers full process-wide: a server finds the method's telemetry by it
	fn         MethodFunc
	concurrent bool
}

// methodIndexes hands out methodEntry.index.
var methodIndexes atomic.Int64

// ClassSpec is the untyped descriptor of a registered remote class: its
// constructor and method table. It is the dispatch representation the
// server uses; user code normally holds the generic Class[T] handle from
// RegisterClass, which wraps a ClassSpec.
//
// The method table is published read-only: a request reads the map
// methods points to without a lock, and registration — Method,
// ConcurrentMethod, Extend — builds a new map under mu and
// publishes it in place of the old one.
type ClassSpec struct {
	name    string
	ctor    Constructor
	mu      sync.Mutex // orders the writers of methods
	methods atomic.Pointer[map[string]methodEntry]
}

// Name returns the registered class name.
func (c *ClassSpec) Name() string { return c.name }

// Method registers a serial method: invocations are delivered through the
// object's mailbox and execute one at a time in arrival order. It returns
// the class for chaining.
func (c *ClassSpec) Method(name string, fn MethodFunc) *ClassSpec {
	c.addMethod(name, fn, false)
	return c
}

// ConcurrentMethod registers a method that executes outside the object's
// mailbox, concurrently with the object's serial stream. The object is
// responsible for synchronizing any state such a method touches. Use this
// for peer-data-push endpoints (see package doc).
func (c *ClassSpec) ConcurrentMethod(name string, fn MethodFunc) *ClassSpec {
	c.addMethod(name, fn, true)
	return c
}

func (c *ClassSpec) addMethod(name string, fn MethodFunc, concurrent bool) {
	if name == "" || name[0] == '_' {
		panic(fmt.Sprintf("rmi: method name %q is reserved", name))
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.table()[name]; dup {
		panic(fmt.Sprintf("rmi: duplicate method %s.%s", c.name, name))
	}
	c.publish(methodEntry{name: name, full: c.name + "." + name, index: int(methodIndexes.Add(1) - 1), fn: fn, concurrent: concurrent})
}

// table is the published method table. It is never written.
func (c *ClassSpec) table() map[string]methodEntry { return *c.methods.Load() }

// publish replaces the method table by a copy of it with entries put in.
// The caller holds c.mu.
func (c *ClassSpec) publish(entries ...methodEntry) {
	next := maps.Clone(c.table())
	for _, e := range entries {
		next[e.name] = e
	}
	c.methods.Store(&next)
}

// Extend registers a derived class that inherits every method of c (the
// paper's process inheritance, §3: "straightforward to derive new
// processes using previously defined processes"). The derived class gets
// its own constructor and may add methods; reusing an inherited name
// panics like any duplicate, so no derived class overrides one.
func (c *ClassSpec) Extend(name string, ctor Constructor) *ClassSpec {
	derived := Register(name, ctor)
	inherited := c.table()
	entries := make([]methodEntry, 0, len(inherited))
	for m, e := range inherited {
		// Re-key the telemetry name and index: an inherited method invoked
		// on the derived class reports under the derived class's name.
		e.full = name + "." + m
		e.index = int(methodIndexes.Add(1) - 1)
		entries = append(entries, e)
	}
	derived.mu.Lock()
	defer derived.mu.Unlock()
	derived.publish(entries...)
	return derived
}

// MethodNames returns the sorted method names (used by tests and
// introspection).
func (c *ClassSpec) MethodNames() []string {
	return slices.Sorted(maps.Keys(c.table()))
}

// lookupBytes finds a method by a raw byte view of its name (as decoded
// from a request frame). Indexing the map with a string([]byte)
// conversion does not allocate, which keeps the dispatch path
// allocation-free.
func (c *ClassSpec) lookupBytes(method []byte) (methodEntry, bool) {
	e, ok := c.table()[string(method)]
	return e, ok
}

var (
	registryMu sync.RWMutex
	registry   = make(map[string]*ClassSpec)
)

// Register adds an untyped class to the global registry. It panics on
// duplicate names: classes are program structure, and a collision is a
// bug. Prefer RegisterClass, which returns a typed handle; Register
// remains for dynamic cases where the object type is not known at
// compile time.
func Register(name string, ctor Constructor) *ClassSpec {
	if name == "" {
		panic("rmi: empty class name")
	}
	c := &ClassSpec{name: name, ctor: ctor}
	c.methods.Store(&map[string]methodEntry{})
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("rmi: duplicate class %q", name))
	}
	registry[name] = c
	return c
}

// LookupClass returns the registered class with the given name.
func LookupClass(name string) (*ClassSpec, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	c, ok := registry[name]
	return c, ok
}

// RegisteredClasses returns the sorted names of all registered classes.
func RegisteredClasses() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
