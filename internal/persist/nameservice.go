package persist

import (
	"context"
	"fmt"

	"oopp/internal/collection"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// ClassNameService is the registered class of the address directory.
const ClassNameService = "persist.NameService"

// nameService is the server-side directory object mapping symbolic
// addresses to remote pointers.
type nameService struct {
	bindings map[string]rmi.Ref
}

func init() {
	rmi.RegisterClass(ClassNameService, func(env *rmi.Env, args *wire.Decoder) (*nameService, error) {
		return &nameService{bindings: make(map[string]rmi.Ref)}, nil
	}).
		Method("bind", func(ns *nameService, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			addr := args.String()
			ref := args.Ref()
			if err := args.Err(); err != nil {
				return err
			}
			if _, err := ParseAddress(addr); err != nil {
				return err
			}
			ns.bindings[addr] = ref
			return nil
		}).
		Method("resolve", func(ns *nameService, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			addr := args.String()
			if err := args.Err(); err != nil {
				return err
			}
			ref, ok := ns.bindings[addr]
			if !ok {
				return fmt.Errorf("persist: address %q not bound", addr)
			}
			reply.PutRef(ref)
			return nil
		}).
		Method("unbind", func(ns *nameService, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			addr := args.String()
			if err := args.Err(); err != nil {
				return err
			}
			delete(ns.bindings, addr)
			return nil
		})
}

// NameService is the client stub for the address directory process.
type NameService struct {
	client *rmi.Client
	ref    rmi.Ref
}

// NewNameService creates the directory process on machine m.
func NewNameService(ctx context.Context, client *rmi.Client, m int) (*NameService, error) {
	ref, err := client.New(ctx, m, ClassNameService, nil)
	if err != nil {
		return nil, err
	}
	return &NameService{client: client, ref: ref}, nil
}

// Ref returns the directory's remote pointer.
func (n *NameService) Ref() rmi.Ref { return n.ref }

// Bind associates addr with a remote pointer.
func (n *NameService) Bind(ctx context.Context, addr Address, ref rmi.Ref) error {
	d, err := n.client.Call(ctx, n.ref, "bind", func(e *wire.Encoder) error {
		e.PutString(addr.String())
		e.PutRef(ref)
		return nil
	})
	d.Release()
	return err
}

// Resolve looks up the remote pointer bound to addr — the paper's
// 'PageDevice * pd = "http://data/set/PageDevice/34"'.
func (n *NameService) Resolve(ctx context.Context, addr Address) (rmi.Ref, error) {
	d, err := n.client.Call(ctx, n.ref, "resolve", func(e *wire.Encoder) error {
		e.PutString(addr.String())
		return nil
	})
	if err != nil {
		return rmi.Ref{}, err
	}
	defer d.Release()
	ref := d.Ref()
	return ref, d.Err()
}

// Unbind removes a binding (missing bindings are not an error).
func (n *NameService) Unbind(ctx context.Context, addr Address) error {
	d, err := n.client.Call(ctx, n.ref, "unbind", func(e *wire.Encoder) error {
		e.PutString(addr.String())
		return nil
	})
	d.Release()
	return err
}

// Close deletes the directory process.
func (n *NameService) Close(ctx context.Context) error { return n.client.Delete(ctx, n.ref) }

// Manager composes a NameService with per-machine Stores into the usage
// pattern of §5: persistent processes are reached by address; a resolve
// that finds the process passivated reactivates it transparently ("the
// runtime system is responsible for storing process representation, and
// activating and de-activating processes, as needed").
type Manager struct {
	ns     *NameService
	stores map[int]*Store // by machine
	client *rmi.Client
}

// NewManager creates a name service on machine nsMachine and a store on
// each listed machine. The stores are spawned as a collection — one
// concurrent, windowed fan-out with leak-free partial-failure cleanup —
// instead of one blocking construction per machine.
func NewManager(ctx context.Context, client *rmi.Client, nsMachine int, storeMachines []int) (*Manager, error) {
	ns, err := NewNameService(ctx, client, nsMachine)
	if err != nil {
		return nil, err
	}
	m := &Manager{ns: ns, stores: make(map[int]*Store), client: client}
	if len(storeMachines) > 0 {
		coll, err := collection.SpawnNamed[*Store](ctx, client, collection.OnMachines(storeMachines...), ClassStore, nil)
		if err != nil {
			m.Close(ctx)
			return nil, err
		}
		for i, sm := range storeMachines {
			m.stores[sm] = AttachStore(client, coll.Ref(i))
		}
	}
	return m, nil
}

// StoreOn returns the store for a machine.
func (m *Manager) StoreOn(ctx context.Context, machine int) (*Store, error) {
	st, ok := m.stores[machine]
	if !ok {
		return nil, fmt.Errorf("persist: no store on machine %d", machine)
	}
	return st, nil
}

// Bind registers a live process under addr.
func (m *Manager) Bind(ctx context.Context, addr Address, ref rmi.Ref) error {
	return m.ns.Bind(ctx, addr, ref)
}

// Deactivate passivates the process bound to addr: its state is saved on
// its machine's store, the process terminates, and the binding is marked
// passivated (machine retained, object zeroed).
func (m *Manager) Deactivate(ctx context.Context, addr Address) error {
	ref, err := m.ns.Resolve(ctx, addr)
	if err != nil {
		return err
	}
	st, err := m.StoreOn(ctx, ref.Machine)
	if err != nil {
		return err
	}
	if err := st.Passivate(ctx, ref, addr.String()); err != nil {
		return err
	}
	// Tombstone: remember machine and class with a nil object id.
	return m.ns.Bind(ctx, addr, rmi.Ref{Machine: ref.Machine, Object: 0, Class: ref.Class})
}

// Resolve returns a live remote pointer for addr, reactivating the
// process from its stored state when necessary.
func (m *Manager) Resolve(ctx context.Context, addr Address) (rmi.Ref, error) {
	ref, err := m.ns.Resolve(ctx, addr)
	if err != nil {
		return rmi.Ref{}, err
	}
	if ref.Object != 0 {
		return ref, nil
	}
	// Passivated: reactivate on its home machine.
	st, err := m.StoreOn(ctx, ref.Machine)
	if err != nil {
		return rmi.Ref{}, err
	}
	live, err := st.Activate(ctx, addr.String())
	if err != nil {
		return rmi.Ref{}, err
	}
	if err := m.ns.Bind(ctx, addr, live); err != nil {
		return rmi.Ref{}, err
	}
	return live, nil
}

// Destroy removes addr entirely: unbinds it, deletes the live process if
// any, and discards stored state — the paper's "persistent processes are
// objects that can be destroyed only by explicitly calling the
// destructor".
func (m *Manager) Destroy(ctx context.Context, addr Address) error {
	ref, err := m.ns.Resolve(ctx, addr)
	if err != nil {
		return err
	}
	if err := m.ns.Unbind(ctx, addr); err != nil {
		return err
	}
	if ref.Object != 0 {
		if err := m.client.Delete(ctx, ref); err != nil {
			return err
		}
	}
	if st, err := m.StoreOn(ctx, ref.Machine); err == nil {
		return st.Remove(ctx, addr.String())
	}
	return nil
}

// Close deletes the manager's directory and store processes. Stored blobs
// on disk survive.
func (m *Manager) Close(ctx context.Context) error {
	var firstErr error
	if m.ns != nil {
		if err := m.ns.Close(ctx); err != nil {
			firstErr = err
		}
	}
	for _, st := range m.stores {
		if err := st.Close(ctx); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
