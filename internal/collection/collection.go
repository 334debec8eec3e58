// Package collection implements the paper's central aggregate idiom —
// "FFT * fft[N]", a distributed collection of element objects operated
// on collectively (§4) — as a generic, typed surface over the RMI
// collective engine.
//
// A Collection[T] is an ordered set of member stubs, each a remote
// object of class-type T living on some machine. It is created by
// spawning (Spawn / SpawnClass / SpawnNamed, placed by a Distribution
// descriptor) or by attaching existing refs (FromRefs). Collective
// operations — Broadcast, CallAll, Reduce, Barrier, Destroy — issue
// member calls concurrently through the async lanes with a bounded
// in-flight window, and report errors.Join of all member failures
// (each an rmi.MemberError carrying the member index), never a silent
// first-error abort.
//
// Views (Slice, OnMachine) share member refs without respawning: they
// are windows onto the same remote objects, and destroying a view
// destroys exactly the members it exposes.
//
// Buffer ownership follows the rmi rules: the decoders handed to
// CallAll collectors and Reduce decoders own pooled response frames
// that are recycled as soon as the callback returns — copy anything
// (Bytes, views) that must outlive the decode. See internal/rmi doc.
package collection

import (
	"context"
	"errors"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// Member identifies one element of a collection: its index, the machine
// that owns it (the locality info owner-computes iteration routes by),
// and its remote pointer.
type Member struct {
	Index   int
	Machine int
	Ref     rmi.Ref
}

// MemberEncoder appends one member's call arguments to the request
// frame; the member's index and machine are available so each member
// can receive distinct arguments (the paper's "fft[id] = new(machine
// id) FFT(id)" shape).
type MemberEncoder func(m Member, e *wire.Encoder) error

// Collection is a typed distributed collection of member objects. T is
// the Go type of the server-side member object (by the same convention
// as rmi.Class[T]); for attached collections of foreign refs T may be
// any tag type the caller finds descriptive.
type Collection[T any] struct {
	client  *rmi.Client
	members []Member
	refs    []rmi.Ref // members[i].Ref, cached so collectives don't rebuild it
	window  int
}

// Spawn constructs a collection of the class registered for type T, one
// member per machine assignment of dist, passing args with the tagged generic
// encoding (every member receives the same args; use SpawnClass for
// per-member constructor arguments). It is the collective form of
// rmi.NewOn[T].
func Spawn[T any](ctx context.Context, client *rmi.Client, dist Distribution, args ...any) (*Collection[T], error) {
	spec, err := rmi.SpecFor[T]()
	if err != nil {
		return nil, err
	}
	// Always encode the tagged sequence — like NewOn, a nullary call
	// still carries the count-0 prefix the constructor's Anys expects.
	enc := func(_ int, e *wire.Encoder) error { return e.PutAnys(args) }
	return spawn[T](ctx, client, dist, spec.Name(), enc)
}

// SpawnClass constructs a collection through a typed class handle with a
// per-member packed constructor encoding — the collective form of
// Class[T].New.
func SpawnClass[T any](ctx context.Context, client *rmi.Client, dist Distribution, class *rmi.Class[T], args MemberEncoder, opts ...rmi.CallOption) (*Collection[T], error) {
	return SpawnNamed[T](ctx, client, dist, class.Name(), args, opts...)
}

// SpawnNamed constructs a collection of the class registered under the
// given name. T is the caller's member type tag (for classes registered
// dynamically, or when the server-side type is not nameable at the call
// site — e.g. a stub package's client types).
func SpawnNamed[T any](ctx context.Context, client *rmi.Client, dist Distribution, class string, args MemberEncoder, opts ...rmi.CallOption) (*Collection[T], error) {
	var enc func(int, *wire.Encoder) error
	if args != nil {
		enc = func(i int, e *wire.Encoder) error {
			return args(Member{Index: i, Machine: dist.MachineFor(i)}, e)
		}
	}
	return spawn[T](ctx, client, dist, class, enc, opts...)
}

// spawn is the shared engine entry: validate the distribution, fan out
// the constructions (windowed, leak-free on partial failure), and wrap
// the refs.
func spawn[T any](ctx context.Context, client *rmi.Client, dist Distribution, class string, enc func(int, *wire.Encoder) error, opts ...rmi.CallOption) (*Collection[T], error) {
	if err := dist.Validate(); err != nil {
		return nil, err
	}
	machines := dist.MachineList()
	refs, err := rmi.SpawnRefs(ctx, client, machines, class, enc, rmi.DefaultWindow, opts...)
	if err != nil {
		return nil, err
	}
	return FromRefs[T](client, refs), nil
}

// FromRefs wraps existing remote pointers into a collection without
// constructing anything. The refs slice is copied.
func FromRefs[T any](client *rmi.Client, refs []rmi.Ref) *Collection[T] {
	members := make([]Member, len(refs))
	own := make([]rmi.Ref, len(refs))
	copy(own, refs)
	for i, r := range own {
		members[i] = Member{Index: i, Machine: r.Machine, Ref: r}
	}
	return &Collection[T]{client: client, members: members, refs: own, window: rmi.DefaultWindow}
}

// Client returns the client the collection issues its calls through.
func (c *Collection[T]) Client() *rmi.Client { return c.client }

// Len returns the number of members.
func (c *Collection[T]) Len() int { return len(c.members) }

// Ref returns the i-th member's remote pointer.
func (c *Collection[T]) Ref(i int) rmi.Ref { return c.members[i].Ref }

// Refs returns the member refs, in order (a fresh slice).
func (c *Collection[T]) Refs() []rmi.Ref {
	refs := make([]rmi.Ref, len(c.refs))
	copy(refs, c.refs)
	return refs
}

// Machines returns the distinct machines hosting members, in first-seen
// member order.
func (c *Collection[T]) Machines() []int {
	seen := make(map[int]bool)
	var out []int
	for _, m := range c.members {
		if !seen[m.Machine] {
			seen[m.Machine] = true
			out = append(out, m.Machine)
		}
	}
	return out
}

// SetWindow bounds the number of outstanding requests in the
// collection's collective operations. Values < 1 reset to
// rmi.DefaultWindow. It returns the collection for chaining.
func (c *Collection[T]) SetWindow(w int) *Collection[T] {
	c.window = w
	return c
}

// view derives a collection sharing member refs (no respawn, no copy of
// the remote objects — destroying a view destroys its members).
func (c *Collection[T]) view(members []Member) *Collection[T] {
	refs := make([]rmi.Ref, len(members))
	for i, m := range members {
		refs[i] = m.Ref
	}
	return &Collection[T]{client: c.client, members: members, refs: refs, window: c.window}
}

// Slice returns the view of members [lo, hi). Member descriptors keep
// their original Index, so collectives over the view still report and
// encode global member indices.
func (c *Collection[T]) Slice(lo, hi int) *Collection[T] {
	return c.view(c.members[lo:hi])
}

// Select returns the view of the members at the listed positions (in
// this collection), in the given order. Like every view, descriptors
// keep their original Index, so collectives over the selection report
// and encode global member identities — core.Array's kernel collectives
// use this to address exactly the devices a domain's pages live on.
func (c *Collection[T]) Select(positions ...int) *Collection[T] {
	members := make([]Member, len(positions))
	for i, p := range positions {
		members[i] = c.members[p]
	}
	return c.view(members)
}

// OnMachine returns the view of the members hosted on machine m — the
// locality filter of owner-computes iteration.
func (c *Collection[T]) OnMachine(m int) *Collection[T] {
	var members []Member
	for _, mem := range c.members {
		if mem.Machine == m {
			members = append(members, mem)
		}
	}
	return c.view(members)
}

// ForEach iterates the member descriptors locally, in order, stopping
// at the first error. It performs no remote calls itself: fn holds the
// member's index, machine and ref, and decides what (if anything) to
// issue — the owner-computes building block.
func (c *Collection[T]) ForEach(fn func(m Member) error) error {
	for _, m := range c.members {
		if err := fn(m); err != nil {
			return err
		}
	}
	return nil
}

// callAll is the engine bridge: FanOut over the member refs, with the
// position-in-view index translated to the member descriptor.
func (c *Collection[T]) callAll(ctx context.Context, method string, args MemberEncoder, collect func(i int, d *wire.Decoder) error, opts ...rmi.CallOption) error {
	var enc func(int, *wire.Encoder) error
	if args != nil {
		enc = func(i int, e *wire.Encoder) error { return args(c.members[i], e) }
	}
	return c.globalizeIndices(rmi.FanOut(ctx, c.client, c.refs, method, enc, collect, c.window, opts...))
}

// globalizeIndices rewrites the engine's position-based MemberError
// indices into the members' global indices, so collectives over views
// report the same member identities the descriptors carry. The engine
// allocates the MemberErrors fresh for this call, so rewriting in place
// is safe.
func (c *Collection[T]) globalizeIndices(err error) error {
	walkMemberErrors(err, func(me *rmi.MemberError) {
		if me.Index >= 0 && me.Index < len(c.members) {
			me.Index = c.members[me.Index].Index
		}
	})
	return err
}

// walkMemberErrors visits every rmi.MemberError in an error tree built
// from errors.Join / fmt wrapping — the one traversal shared by index
// globalization and Failed (errors.As would stop at the first match).
func walkMemberErrors(err error, fn func(*rmi.MemberError)) {
	if err == nil {
		return
	}
	if me, ok := err.(*rmi.MemberError); ok {
		fn(me)
		return
	}
	switch u := err.(type) {
	case interface{ Unwrap() []error }:
		for _, sub := range u.Unwrap() {
			walkMemberErrors(sub, fn)
		}
	case interface{ Unwrap() error }:
		walkMemberErrors(u.Unwrap(), fn)
	}
}

// Broadcast invokes method on every member concurrently (bounded by the
// window), discarding results — the paper's "fft[id]->transform(...)"
// loop in its collective form. args may be nil for nullary methods. It
// attempts every member and returns errors.Join of all member
// failures.
func (c *Collection[T]) Broadcast(ctx context.Context, method string, args MemberEncoder, opts ...rmi.CallOption) error {
	return c.callAll(ctx, method, args, nil, opts...)
}

// CallAll is Broadcast for methods with results: collect receives each
// member's reply decoder in member order. The decoder (and any views of
// it) is valid only until collect returns; the response frame recycles
// afterwards.
func (c *Collection[T]) CallAll(ctx context.Context, method string, args MemberEncoder, collect func(m Member, d *wire.Decoder) error, opts ...rmi.CallOption) error {
	var inner func(int, *wire.Decoder) error
	if collect != nil {
		inner = func(i int, d *wire.Decoder) error { return collect(c.members[i], d) }
	}
	return c.callAll(ctx, method, args, inner, opts...)
}

// Barrier synchronizes with every member process: it completes when
// each member has processed all messages sent to it before the barrier
// — the paper's "fft->barrier()" (§4).
func (c *Collection[T]) Barrier(ctx context.Context) error {
	return c.globalizeIndices(rmi.BarrierRefs(ctx, c.client, c.refs, c.window))
}

// Destroy deletes every member process concurrently and returns
// errors.Join of the per-member failures. On a view it destroys exactly
// the members the view exposes.
func (c *Collection[T]) Destroy(ctx context.Context) error {
	return c.globalizeIndices(rmi.DeleteRefs(ctx, c.client, c.refs, c.window))
}

// MapIndexed runs fn once per member, concurrently with the
// collection's window bound, and returns the results in member order —
// owner-computes iteration where fn decides what to run against each
// member (typically one or more RMI calls against m.Ref). Failed
// members leave their zero value in the result slice; the error is
// errors.Join of per-member failures.
func MapIndexed[T, R any](ctx context.Context, c *Collection[T], fn func(ctx context.Context, m Member) (R, error)) ([]R, error) {
	n := len(c.members)
	window := c.window
	if window < 1 {
		window = rmi.DefaultWindow
	}
	if window > n {
		window = n
	}
	results := make([]R, n)
	errSlots := make([]error, n)
	if n == 0 {
		return results, nil
	}
	sem := make(chan struct{}, window)
	for i := range c.members {
		sem <- struct{}{}
		go func(i int) {
			defer func() { <-sem }()
			m := c.members[i]
			v, err := fn(ctx, m)
			if err != nil {
				errSlots[i] = &rmi.MemberError{Index: m.Index, Machine: m.Machine, Op: "map", Err: err}
				return
			}
			results[i] = v
		}(i)
	}
	for i := 0; i < cap(sem); i++ {
		sem <- struct{}{}
	}
	return results, errors.Join(errSlots...)
}

// Failed returns the member indices named in an error produced by a
// collective operation (the rmi.MemberError entries of its
// errors.Join), in occurrence order. errors.As on a joined error finds
// only the first member; this walks the whole tree. A nil error yields
// nil.
func Failed(err error) []int {
	var out []int
	walkMemberErrors(err, func(me *rmi.MemberError) { out = append(out, me.Index) })
	return out
}

// FailedMachines returns the distinct machines named in an error
// produced by a collective operation, in first-occurrence order. Paired
// with errors.Is(err, rmi.ErrMachineDown) it answers the operational
// question after a partial failure: which machines are gone. A nil error
// yields nil.
func FailedMachines(err error) []int {
	seen := make(map[int]bool)
	var out []int
	walkMemberErrors(err, func(me *rmi.MemberError) {
		if !seen[me.Machine] {
			seen[me.Machine] = true
			out = append(out, me.Machine)
		}
	})
	return out
}
