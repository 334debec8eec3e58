package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"oopp/internal/collection"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// BlockStorage is the paper's
//
//	typedef vector<ArrayPageDevice*> BlockStorage;
//
// — the collection of storage device processes an Array spreads its pages
// over. Each device should live on its own disk (ideally its own
// machine); the PageMap decides which logical page goes to which device.
//
// Device-wide collectives (creation, barrier, teardown) run over a typed
// Collection: concurrent with a bounded window, reporting errors.Join of
// all member failures. Computing over the pages is the Array's business:
// its collectives reach the devices through the map.
//
// Membership is elastic: AddDevice appends a freshly spawned device
// (the join half of the elastic cluster) by swapping an immutable
// membership snapshot (copy-on-write), so Array clients running
// operations concurrently with a join never observe a half-updated
// device table — they keep using the snapshot their page-map snapshot
// was built against.
type BlockStorage struct {
	name  string     // base name spawned devices derive theirs from
	mu    sync.Mutex // serializes membership changes, not reads
	state atomic.Pointer[storageState]
}

// storageState is one immutable membership snapshot.
type storageState struct {
	devices  []*pagedev.ArrayDevice
	machines []int // machines[i] hosts device i — the failover routing table
	coll     *collection.Collection[*pagedev.ArrayDevice]
}

func (b *BlockStorage) snap() *storageState { return b.state.Load() }

// swap installs a new membership snapshot built from the device list.
func (b *BlockStorage) swap(devices []*pagedev.ArrayDevice) {
	refs := make([]rmi.Ref, len(devices))
	machines := make([]int, len(devices))
	for i, d := range devices {
		refs[i] = d.Ref()
		machines[i] = refs[i].Machine
	}
	var client *rmi.Client
	if len(devices) > 0 {
		client = devices[0].Client()
	}
	b.state.Store(&storageState{
		devices:  devices,
		machines: machines,
		coll:     collection.FromRefs[*pagedev.ArrayDevice](client, refs),
	})
}

// NewBlockStorage wraps existing device stubs. The slice is not copied.
func NewBlockStorage(devices []*pagedev.ArrayDevice) *BlockStorage {
	b := &BlockStorage{}
	b.swap(devices)
	return b
}

// CreateBlockStorage constructs one ArrayPageDevice process per entry of
// machines (the paper's "for i: device[i] = new(machine i)
// ArrayPageDevice(...)" loop), each backed by the machine disk diskIndex
// (or a private memory disk for DiskPrivate). Construction is a
// collective spawn: concurrent with a bounded window, and on partial
// failure every already-constructed device is torn down — no process
// leaks.
func CreateBlockStorage(ctx context.Context, client *rmi.Client, machines []int, name string, pagesPerDevice, n1, n2, n3, diskIndex int) (*BlockStorage, error) {
	if len(machines) == 0 {
		// Zero devices is a valid (empty) storage; the spawn path below
		// would reject an empty distribution.
		return NewBlockStorage(nil), nil
	}
	coll, err := collection.SpawnNamed[*pagedev.ArrayDevice](ctx, client, collection.OnMachines(machines...),
		pagedev.ClassArrayPageDevice, func(m collection.Member, e *wire.Encoder) error {
			pagedev.EncodeArrayDeviceCtor(e, fmt.Sprintf("%s/%d", name, m.Index), pagesPerDevice, n1, n2, n3, diskIndex)
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("core: creating block storage %q: %w", name, err)
	}
	devices := make([]*pagedev.ArrayDevice, coll.Len())
	for i := range devices {
		devices[i] = pagedev.AttachArrayDevice(client, coll.Ref(i), n1, n2, n3)
	}
	b := &BlockStorage{name: name}
	b.swap(devices)
	return b, nil
}

// AddDevice spawns a fresh ArrayPageDevice with pages page slots on
// machine, backed by diskIndex, and appends it to the storage — the
// join half of the elastic cluster. The new device starts empty and
// unmapped; Array.Rebalance is what flows pages onto it. Returns the
// new device's index.
//
// Existing Array clients over this storage keep working throughout: a
// join only appends (no existing index changes meaning), and their
// next Rebalance observes the newcomer.
func (b *BlockStorage) AddDevice(ctx context.Context, machine, pages, diskIndex int) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.snap()
	idx := len(s.devices)
	if idx == 0 {
		return 0, fmt.Errorf("core: cannot join a device to an empty storage")
	}
	n1, n2, n3 := s.devices[0].Dims()
	name := b.name
	if name == "" {
		name = "storage"
	}
	dev, err := pagedev.NewArrayDevice(ctx, s.coll.Client(), machine,
		fmt.Sprintf("%s/%d", name, idx), pages, n1, n2, n3, diskIndex)
	if err != nil {
		return 0, fmt.Errorf("core: joining device on machine %d: %w", machine, err)
	}
	b.swap(append(slices.Clip(s.devices), dev))
	return idx, nil
}

// Len returns the number of devices.
func (b *BlockStorage) Len() int { return len(b.snap().devices) }

// Device returns device i.
func (b *BlockStorage) Device(i int) *pagedev.ArrayDevice { return b.snap().devices[i] }

// MachineOf returns the machine hosting device i — the table replica
// routing and failover use to translate the failure detector's
// machine-level verdicts into device sets.
func (b *BlockStorage) MachineOf(i int) int { return b.snap().machines[i] }

// Machines returns the per-device machine list (not a copy).
func (b *BlockStorage) Machines() []int { return b.snap().machines }

// Client returns the RMI client the device stubs share (nil for an
// empty storage).
func (b *BlockStorage) Client() *rmi.Client { return b.snap().coll.Client() }

// Collection exposes the device processes as a typed collection, for
// further collectives (checkpoint binds, custom reductions). The
// returned collection is an immutable membership snapshot.
func (b *BlockStorage) Collection() *collection.Collection[*pagedev.ArrayDevice] {
	return b.snap().coll
}

// Refs returns the remote pointers of all devices (for passing storage to
// other processes).
func (b *BlockStorage) Refs() []rmi.Ref { return b.snap().coll.Refs() }

// Barrier synchronizes with every device process: its completion proves
// every earlier message to every device was processed.
func (b *BlockStorage) Barrier(ctx context.Context) error { return b.snap().coll.Barrier(ctx) }

// Close deletes every device process, concurrently.
func (b *BlockStorage) Close(ctx context.Context) error { return b.snap().coll.Destroy(ctx) }
