package persist

import (
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"

	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// ClassStore is the registered class of the per-machine passivation store.
const ClassStore = "persist.Store"

// ResourceServer is the Env resource name under which a machine's
// rmi.Server must be installed for the Store to passivate and activate
// local processes. The cluster package installs it automatically.
const ResourceServer = rmi.ResourceServer

// blob is one passivated process: its class and serialized state.
type blob struct {
	class string
	state []byte
}

// store is the server-side object. It keeps blobs in memory and, when the
// machine has a DataDir, mirrors them to disk so passivated processes
// survive machine restarts.
type store struct {
	dir   string // "" = memory only
	blobs map[string]blob
}

func (s *store) fileFor(name string) string {
	return filepath.Join(s.dir, hex.EncodeToString([]byte(name))+".proc")
}

func (s *store) put(name string, b blob) error {
	s.blobs[name] = b
	if s.dir == "" {
		return nil
	}
	e := wire.NewEncoder(16 + len(b.class) + len(b.state))
	e.PutString(b.class)
	e.PutBytes(b.state)
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(s.fileFor(name), e.Bytes(), 0o644)
}

func (s *store) get(name string) (blob, bool, error) {
	if b, ok := s.blobs[name]; ok {
		return b, true, nil
	}
	if s.dir == "" {
		return blob{}, false, nil
	}
	raw, err := os.ReadFile(s.fileFor(name))
	if err != nil {
		if os.IsNotExist(err) {
			return blob{}, false, nil
		}
		return blob{}, false, err
	}
	d := wire.NewDecoder(raw)
	b := blob{class: d.String(), state: d.BytesCopy()}
	if err := d.Err(); err != nil {
		return blob{}, false, fmt.Errorf("persist: corrupt blob %q: %w", name, err)
	}
	s.blobs[name] = b
	return b, true, nil
}

func (s *store) remove(name string) {
	delete(s.blobs, name)
	if s.dir != "" {
		_ = os.Remove(s.fileFor(name))
	}
}

func localServer(env *rmi.Env) (*rmi.Server, error) {
	res, err := env.MustResource(ResourceServer)
	if err != nil {
		return nil, err
	}
	srv, ok := res.(*rmi.Server)
	if !ok {
		return nil, fmt.Errorf("persist: resource %q is %T", ResourceServer, res)
	}
	return srv, nil
}

func init() {
	rmi.RegisterClass(ClassStore, func(env *rmi.Env, args *wire.Decoder) (*store, error) {
		dir := ""
		if env.DataDir != "" {
			dir = filepath.Join(env.DataDir, "persist")
		}
		return &store{dir: dir, blobs: make(map[string]blob)}, nil
	}).
		Method("passivate", func(s *store, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			ref := args.Ref()
			name := args.String()
			if err := args.Err(); err != nil {
				return err
			}
			if ref.Machine != env.Machine {
				return fmt.Errorf("persist: store on machine %d cannot passivate object on machine %d", env.Machine, ref.Machine)
			}
			srv, err := localServer(env)
			if err != nil {
				return err
			}
			// Refuse early for classes that cannot be persisted, before
			// touching the live process.
			if inst, ok := srv.Object(ref.Object); ok {
				if _, persistable := inst.(Persistable); !persistable {
					return fmt.Errorf("persist: class %s does not implement Persistable", ref.Class)
				}
			}
			target, err := srv.TakeObject(ref.Object)
			if err != nil {
				return err
			}
			p, ok := target.(Persistable)
			if !ok {
				// Raced with a class change (impossible today, defensive):
				// put it back under the same id.
				if perr := srv.PutBack(ref.Object, ref.Class, target); perr != nil {
					return fmt.Errorf("persist: %s is not persistable (restore failed: %v)", ref.Class, perr)
				}
				return fmt.Errorf("persist: class %s does not implement Persistable", ref.Class)
			}
			e := wire.NewEncoder(1024)
			if err := p.SaveState(e); err != nil {
				if perr := srv.PutBack(ref.Object, ref.Class, target); perr != nil {
					return fmt.Errorf("persist: save failed (%v) and restore failed (%v)", err, perr)
				}
				return fmt.Errorf("persist: saving %s state: %w", ref.Class, err)
			}
			return s.put(name, blob{class: ref.Class, state: e.Bytes()})
		}).
		Method("put", func(s *store, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			// put(name, class, state): accept an already-serialized blob
			// over the wire — the checkpoint half of cold recovery. Unlike
			// passivate it does not touch any live process; the sender
			// (typically a device on *another* machine checkpointing to
			// this one) stays up. The class must be a registered
			// restorable class or the blob will never activate.
			name := args.String()
			class := args.String()
			state := args.BytesCopy()
			if err := args.Err(); err != nil {
				return err
			}
			if _, ok := lookupRestorer(class); !ok {
				return fmt.Errorf("persist: class %s has no registered restorer", class)
			}
			return s.put(name, blob{class: class, state: state})
		}).
		Method("activate", func(s *store, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			name := args.String()
			if err := args.Err(); err != nil {
				return err
			}
			b, ok, err := s.get(name)
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("persist: no passivated process named %q", name)
			}
			factory, ok := lookupRestorer(b.class)
			if !ok {
				return fmt.Errorf("persist: class %s has no registered restorer", b.class)
			}
			inst := factory()
			if err := inst.LoadState(env, wire.NewDecoder(b.state)); err != nil {
				return fmt.Errorf("persist: restoring %s: %w", b.class, err)
			}
			srv, err := localServer(env)
			if err != nil {
				return err
			}
			ref, err := srv.AddObject(b.class, inst)
			if err != nil {
				return err
			}
			reply.PutRef(ref)
			return nil
		}).
		Method("remove", func(s *store, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			name := args.String()
			if err := args.Err(); err != nil {
				return err
			}
			s.remove(name)
			return nil
		})
}

// Store is the client stub for a machine's passivation store.
type Store struct {
	client *rmi.Client
	ref    rmi.Ref
}

// NewStore creates the store process on machine m.
func NewStore(ctx context.Context, client *rmi.Client, m int) (*Store, error) {
	ref, err := client.New(ctx, m, ClassStore, nil)
	if err != nil {
		return nil, err
	}
	return &Store{client: client, ref: ref}, nil
}

// AttachStore wraps an existing store ref.
func AttachStore(client *rmi.Client, ref rmi.Ref) *Store {
	return &Store{client: client, ref: ref}
}

// Ref returns the store's remote pointer.
func (s *Store) Ref() rmi.Ref { return s.ref }

// Passivate saves the state of the (machine-local) process ref under name
// and terminates the process. The ref becomes dangling.
func (s *Store) Passivate(ctx context.Context, ref rmi.Ref, name string) error {
	d, err := s.client.Call(ctx, s.ref, "passivate", func(e *wire.Encoder) error {
		e.PutRef(ref)
		e.PutString(name)
		return nil
	})
	d.Release()
	return err
}

// Put stores an already-serialized state blob under name without touching
// any live process — the receiving half of a cross-machine checkpoint.
// The blob lands in this store's memory (and DataDir mirror, when the
// machine has one) and activates later exactly like a passivated process.
func (s *Store) Put(ctx context.Context, name, class string, state []byte) error {
	d, err := s.client.Call(ctx, s.ref, "put", func(e *wire.Encoder) error {
		e.PutString(name)
		e.PutString(class)
		e.PutBytes(state)
		return nil
	})
	d.Release()
	return err
}

// Activate reconstructs the passivated process named name and returns the
// new remote pointer.
func (s *Store) Activate(ctx context.Context, name string) (rmi.Ref, error) {
	d, err := s.client.Call(ctx, s.ref, "activate", func(e *wire.Encoder) error {
		e.PutString(name)
		return nil
	})
	if err != nil {
		return rmi.Ref{}, err
	}
	defer d.Release()
	ref := d.Ref()
	return ref, d.Err()
}

// Remove discards a passivated process's stored state.
func (s *Store) Remove(ctx context.Context, name string) error {
	d, err := s.client.Call(ctx, s.ref, "remove", func(e *wire.Encoder) error {
		e.PutString(name)
		return nil
	})
	d.Release()
	return err
}

// Close deletes the store process (stored blobs on disk survive).
func (s *Store) Close(ctx context.Context) error { return s.client.Delete(ctx, s.ref) }
