package pagedev

import (
	"fmt"

	"oopp/internal/persist"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// This file makes the storage processes persistent (§5): a PageDevice or
// ArrayPageDevice can be passivated — its representation saved, its
// process terminated — and activated again later, possibly after a
// machine restart.
//
// What "representation" means depends on the backing:
//   - private memory disk: the full page contents are serialized;
//   - machine disk: only the geometry is serialized — the page data is
//     already durable on the disk and is reattached on activation;
//   - remote (construct-from-process): the remote pointer is serialized
//     and the delegation is re-established.

// SaveState implements persist.Persistable.
func (p *pageDevice) SaveState(e *wire.Encoder) error {
	deviceCodec.Put(e, p.deviceArgs)
	switch p.diskIndex {
	case DiskPrivate:
		// Dump the entire private device.
		all := make([]byte, p.numPages*p.pageSize)
		for i := 0; i < p.numPages; i++ {
			if err := p.store.readPage(i, all[i*p.pageSize:(i+1)*p.pageSize]); err != nil {
				return fmt.Errorf("pagedev: dumping page %d: %w", i, err)
			}
		}
		e.PutBytes(all)
	case diskRemote:
		rb, ok := p.store.(*remoteBacking)
		if !ok {
			return fmt.Errorf("pagedev: remote device with %T backing", p.store)
		}
		e.PutRef(rb.ref)
	}
	return nil
}

// LoadState implements persist.Persistable.
func (p *pageDevice) LoadState(env *rmi.Env, d *wire.Decoder) error {
	a, err := deviceCodec.Get(d)
	if err != nil {
		return err
	}
	var fresh *pageDevice
	if a.diskIndex == diskRemote {
		src := d.Ref()
		if err := d.Err(); err != nil {
			return err
		}
		fresh, err = remoteDevice(env, a.name, src, a.numPages, a.pageSize)
	} else {
		fresh, err = newPageDevice(env, a)
	}
	if err != nil {
		return err
	}
	if a.diskIndex == DiskPrivate {
		all := d.Bytes()
		if err := d.Err(); err != nil {
			return err
		}
		if len(all) != a.numPages*a.pageSize {
			return fmt.Errorf("pagedev: state blob has %d data bytes, want %d", len(all), a.numPages*a.pageSize)
		}
		for i := 0; i < a.numPages; i++ {
			if err := fresh.store.writePage(i, all[i*a.pageSize:(i+1)*a.pageSize]); err != nil {
				return fmt.Errorf("pagedev: restoring page %d: %w", i, err)
			}
		}
	}
	p.restoreFrom(fresh)
	return nil
}

// restoreFrom adopts a freshly constructed device's state field by
// field — the struct cannot be copied wholesale since the I/O counters
// are atomics. An activated device starts with zeroed counters.
func (p *pageDevice) restoreFrom(fresh *pageDevice) {
	p.deviceArgs = fresh.deviceArgs
	p.store = fresh.store
	p.reads.Store(0)
	p.writes.Store(0)
}

// SaveState implements persist.Persistable for the derived process.
func (a *arrayPageDevice) SaveState(e *wire.Encoder) error {
	e.PutInt(a.n1)
	e.PutInt(a.n2)
	e.PutInt(a.n3)
	return a.pageDevice.SaveState(e)
}

// LoadState implements persist.Persistable for the derived process.
func (a *arrayPageDevice) LoadState(env *rmi.Env, d *wire.Decoder) error {
	a.n1 = d.Int()
	a.n2 = d.Int()
	a.n3 = d.Int()
	if err := d.Err(); err != nil {
		return err
	}
	if a.pageDevice == nil {
		a.pageDevice = &pageDevice{}
	}
	return a.pageDevice.LoadState(env, d)
}

func init() {
	persist.RegisterRestorable(PageDeviceClass.Name(), func() persist.Persistable { return &pageDevice{} })
	persist.RegisterRestorable(ArrayPageDeviceClass.Name(), func() persist.Persistable { return &arrayPageDevice{pageDevice: &pageDevice{}} })
}
