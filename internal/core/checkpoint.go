package core

import (
	"context"
	"errors"
	"fmt"

	"oopp/internal/collection"
	"oopp/internal/pagedev"
	"oopp/internal/persist"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// This file completes the §5 picture: "applications must be able to
// access previously constructed data sets. In our view large data objects
// are described as collections of persistent processes."
//
// PublishArray registers a distributed array as a collection of
// persistent processes: each storage device is bound at a symbolic
// address derived from the array's address, and a small ArrayMeta process
// records the geometry and layout. OpenArray reverses it — resolving the
// addresses (transparently reactivating passivated devices) and
// reassembling an Array client. DeactivateArray passivates the whole
// collection.

// ClassArrayMeta is the registered class of the array descriptor process.
const ClassArrayMeta = "core.ArrayMeta"

// arrayMeta is the server-side descriptor object. It is Persistable, so a
// published array can be fully passivated, descriptor included.
type arrayMeta struct {
	n, p [3]int // array dims, page dims
	// pm is the page map, stored as its table: name, device count, k,
	// capacity and every page's chain (the moved index of a migration is
	// in-flight state and is not stored).
	pm PageMap
}

// describe is the descriptor of arr as it stands: geometry and the
// current page map.
func describe(arr *Array) *arrayMeta {
	return &arrayMeta{n: arr.n, p: arr.p, pm: arr.Map()}
}

// encode writes the descriptor: geometry, layout name, device count, the
// page count of the table, k, ppd and each page's chain.
func (m *arrayMeta) encode(e *wire.Encoder) {
	for _, v := range [...]int{m.n[0], m.n[1], m.n[2], m.p[0], m.p[1], m.p[2]} {
		e.PutInt(v)
	}
	e.PutString(m.pm.name)
	e.PutInt(m.pm.devices)
	e.PutUvarint(uint64(len(m.pm.chains)))
	e.PutInt(m.pm.k)
	e.PutInt(m.pm.ppd)
	for _, chain := range m.pm.chains {
		e.PutUvarint(uint64(len(chain)))
		for _, addr := range chain {
			e.PutInt(addr.Device)
			e.PutInt(addr.Index)
		}
	}
}

// decode reads a descriptor and refuses it whole unless an array can be
// assembled from it: a page grid that exists, and exactly one chain per
// page of that grid, of 1 to k addresses on as many devices, every
// address inside devices × ppd and none used twice.
func (m *arrayMeta) decode(d *wire.Decoder) error {
	*m = arrayMeta{}
	m.n = [3]int{d.Int(), d.Int(), d.Int()}
	m.p = [3]int{d.Int(), d.Int(), d.Int()}
	layout := d.String()
	devices := d.Int()
	pages := d.Uvarint()
	k, ppd := d.Int(), d.Int()
	if d.Err() != nil {
		return d.Err()
	}
	for i := range m.n {
		if m.n[i] <= 0 || m.p[i] <= 0 || m.n[i]%m.p[i] != 0 {
			return fmt.Errorf("core: array descriptor: dims %v in pages of %v", m.n, m.p)
		}
	}
	if devices <= 0 {
		return fmt.Errorf("core: array descriptor: %d devices", devices)
	}
	// A page costs at least three bytes, which bounds the table by the
	// bytes at hand before anything is allocated for it; the grid's
	// extents multiply without overflow once each is known to be within
	// that bound.
	g := grid{m.n[0] / m.p[0], m.n[1] / m.p[1], m.n[2] / m.p[2], devices}
	if pages > uint64(d.Remaining())/3 || uint64(g.p1) > pages || uint64(g.p2) > pages || uint64(g.p3) > pages ||
		uint64(g.p1)*uint64(g.p2) > pages || uint64(g.total()) != pages {
		return fmt.Errorf("core: array descriptor: table of %d pages for a %dx%dx%d grid in %d bytes", pages, g.p1, g.p2, g.p3, d.Remaining())
	}
	if k < 1 || k > devices || ppd < 1 {
		return fmt.Errorf("core: array descriptor: table with k=%d, %d pages per device, %d devices", k, ppd, devices)
	}
	table := make([][]PageAddress, pages)
	used := make(map[PageAddress]struct{}, pages)
	holder := make(map[int]int) // device → 1 + the last page with a copy on it
	for l := range table {
		n := d.Uvarint()
		if n == 0 || n > uint64(k) || n > uint64(d.Remaining())/2 {
			return fmt.Errorf("core: array descriptor: page %d has a chain of %d with k=%d (%d bytes left)", l, n, k, d.Remaining())
		}
		table[l] = make([]PageAddress, n)
		for r := range table[l] {
			addr := PageAddress{Device: d.Int(), Index: d.Int()}
			if d.Err() != nil {
				return d.Err()
			}
			_, twice := used[addr]
			twice = twice || holder[addr.Device] == l+1
			if twice || addr.Device < 0 || addr.Device >= devices || addr.Index < 0 || addr.Index >= ppd {
				return fmt.Errorf("core: array descriptor: page %d replica %d at %+v (twice: %v) with %d devices of %d pages", l, r, addr, twice, devices, ppd)
			}
			used[addr], holder[addr.Device] = struct{}{}, l+1
			table[l][r] = addr
		}
	}
	m.pm = newPageMap(g, k, ppd, layout, table, nil)
	return nil
}

// SaveState implements persist.Persistable.
func (m *arrayMeta) SaveState(e *wire.Encoder) error {
	m.encode(e)
	return nil
}

// LoadState implements persist.Persistable.
func (m *arrayMeta) LoadState(env *rmi.Env, d *wire.Decoder) error {
	return m.decode(d)
}

func init() {
	rmi.Register(ClassArrayMeta, func(env *rmi.Env, args *wire.Decoder) (any, error) {
		m := &arrayMeta{}
		if err := m.decode(args); err != nil {
			return nil, err
		}
		return m, nil
	}).
		Method("describe", func(obj any, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			obj.(*arrayMeta).encode(reply)
			return nil
		})
	persist.RegisterRestorable(ClassArrayMeta, func() persist.Persistable { return &arrayMeta{} })
}

// memberName names one member of a described collection under base:
// device i, or the descriptor for i < 0. Symbolic addresses (PublishArray)
// and checkpoint blobs (CheckpointArray) share the scheme.
func memberName(base string, i int) string {
	if i < 0 {
		return base + "/meta"
	}
	return fmt.Sprintf("%s/dev/%d", base, i)
}

func memberAddr(base persist.Address, i int) persist.Address {
	return persist.Address{Namespace: base.Namespace, Path: memberName(base.Path, i)}
}

// eachMember visits a described collection the way every teardown does:
// the devices, then the descriptor — the member that says what the
// others are goes last, so a walk that failed halfway can be repeated.
// It goes on past a failure and returns every one.
func eachMember(devices int, visit func(i int) error) error {
	var errs []error
	for i := 0; i < devices; i++ {
		errs = append(errs, visit(i))
	}
	return errors.Join(append(errs, visit(-1))...)
}

// fetchMeta asks a live descriptor process for its descriptor.
func fetchMeta(ctx context.Context, client *rmi.Client, metaRef rmi.Ref) (*arrayMeta, error) {
	d, err := client.Call(ctx, metaRef, "describe", nil)
	if err != nil {
		return nil, err
	}
	defer d.Release()
	meta := &arrayMeta{}
	return meta, meta.decode(d)
}

// assemble is the one way a described array comes back: its page map
// from the descriptor, each device's ref from refOf, an Array client
// validated against both.
func assemble(ctx context.Context, client *rmi.Client, meta *arrayMeta, refOf func(i int) (rmi.Ref, error)) (*Array, error) {
	devices := make([]*pagedev.ArrayDevice, meta.pm.devices)
	for i := range devices {
		ref, err := refOf(i)
		if err != nil {
			return nil, fmt.Errorf("core: device %d: %w", i, err)
		}
		devices[i] = pagedev.AttachArrayDevice(client, ref, meta.p[0], meta.p[1], meta.p[2])
	}
	return NewArray(ctx, NewBlockStorage(devices), meta.pm, meta.n[0], meta.n[1], meta.n[2], meta.p[0], meta.p[1], meta.p[2])
}

// PublishArray registers arr as a persistent collection under base: a
// descriptor process (created on metaMachine) at base/meta and each
// storage device at base/dev/<i>.
func PublishArray(ctx context.Context, mgr *persist.Manager, client *rmi.Client, metaMachine int, base persist.Address, arr *Array) error {
	meta := describe(arr)
	metaRef, err := client.New(ctx, metaMachine, ClassArrayMeta, func(e *wire.Encoder) error {
		meta.encode(e)
		return nil
	})
	if err != nil {
		return fmt.Errorf("core: creating array descriptor: %w", err)
	}
	if err := mgr.Bind(ctx, memberAddr(base, -1), metaRef); err != nil {
		return err
	}
	// Bind the member devices concurrently: an owner-computes iteration
	// over the storage collection, each member contributing one name-
	// service bind for its own ref.
	_, err = collection.MapIndexed(ctx, arr.Storage().Collection(),
		func(ctx context.Context, m collection.Member) (struct{}, error) {
			return struct{}{}, mgr.Bind(ctx, memberAddr(base, m.Index), m.Ref)
		})
	return err
}

// OpenArray reassembles a published array from its symbolic address,
// transparently reactivating any passivated member processes.
func OpenArray(ctx context.Context, mgr *persist.Manager, client *rmi.Client, base persist.Address) (*Array, error) {
	metaRef, err := mgr.Resolve(ctx, memberAddr(base, -1))
	if err != nil {
		return nil, fmt.Errorf("core: resolving array descriptor: %w", err)
	}
	meta, err := fetchMeta(ctx, client, metaRef)
	if err != nil {
		return nil, err
	}
	return assemble(ctx, client, meta, func(i int) (rmi.Ref, error) { return mgr.Resolve(ctx, memberAddr(base, i)) })
}

// DeactivateArray passivates every member process of a published array
// (devices and descriptor). The storage devices must be persistable
// (they are, for all pagedev backings).
func DeactivateArray(ctx context.Context, mgr *persist.Manager, base persist.Address, devices int) error {
	return eachMember(devices, func(i int) error { return mgr.Deactivate(ctx, memberAddr(base, i)) })
}

// DestroyArray removes the published collection entirely: processes,
// stored state, and bindings.
func DestroyArray(ctx context.Context, mgr *persist.Manager, base persist.Address, devices int) error {
	return eachMember(devices, func(i int) error { return mgr.Destroy(ctx, memberAddr(base, i)) })
}
