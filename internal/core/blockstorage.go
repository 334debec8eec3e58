package core

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"oopp/internal/collection"
	"oopp/internal/kernel"
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
// Device-wide collectives (creation, fill, stat, barrier, teardown) run
// over a typed Collection: concurrent with a bounded window, reporting
// errors.Join of all member failures.
//
// Membership is elastic: AddDevice appends a freshly spawned device
// (the join half of the elastic cluster) and ReviveDevice respawns a
// dead one in place. Both swap an immutable membership snapshot
// (copy-on-write), so Array clients running operations concurrently
// with a join never observe a half-updated device table — they keep
// using the snapshot their page-map snapshot was built against.
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
	idx := b.Len()
	if idx == 0 {
		return 0, fmt.Errorf("core: cannot join a device to an empty storage")
	}
	if err := b.spawn(ctx, idx, machine, pages, diskIndex); err != nil {
		return 0, fmt.Errorf("core: joining device on machine %d: %w", machine, err)
	}
	return idx, nil
}

// ReviveDevice respawns device i's process — the rejoin half: after a
// machine restart (its old process died and Failover routed around it),
// revive gives the device slot a fresh, empty process on machine, and
// a following Array.Rebalance flows pages back onto it. The old process
// must be gone; revive does not reap it.
func (b *BlockStorage) ReviveDevice(ctx context.Context, i, machine, pages, diskIndex int) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if i < 0 || i >= b.Len() {
		return fmt.Errorf("core: revive: no device %d in storage of %d", i, b.Len())
	}
	if err := b.spawn(ctx, i, machine, pages, diskIndex); err != nil {
		return fmt.Errorf("core: reviving device %d on machine %d: %w", i, machine, err)
	}
	return nil
}

// spawn starts a fresh, empty device process on machine for slot i — an
// existing slot, or the one past the last — and swaps in a membership
// snapshot that has it there. The caller holds b.mu; the storage is not
// empty (the new device takes its page dimensions from device 0).
func (b *BlockStorage) spawn(ctx context.Context, i, machine, pages, diskIndex int) error {
	s := b.snap()
	n1, n2, n3 := s.devices[0].Dims()
	name := b.name
	if name == "" {
		name = "storage"
	}
	dev, err := pagedev.NewArrayDevice(ctx, s.coll.Client(), machine,
		fmt.Sprintf("%s/%d", name, i), pages, n1, n2, n3, diskIndex)
	if err != nil {
		return err
	}
	devices := slices.Clone(s.devices)
	if i == len(devices) {
		devices = append(devices, nil)
	}
	devices[i] = dev
	b.swap(devices)
	return nil
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

// runAll runs a one-stage chain over every physical page of every
// device: the same engine batch Array collectives send, with one
// whole-page region per physical index (the devices know their own
// page counts, so they are asked first).
func (b *BlockStorage) runAll(ctx context.Context, stage kernel.Stage, params []float64) ([]StageResult, error) {
	st, err := kernel.Resolve(stage, params)
	if err != nil {
		return nil, err
	}
	c, s := kernel.Chain{st}, b.snap()
	totals := c.Identity()
	if len(s.devices) == 0 {
		return results(c, totals), nil
	}
	byDev := make(map[int]pagedev.Batch, len(s.devices))
	err = s.coll.CallAll(ctx, "numPages", nil, func(m collection.Member, d *wire.Decoder) error {
		n1, n2, n3 := s.devices[m.Index].Dims()
		regs := make([]pagedev.PipeRegion, d.Int())
		for i := range regs {
			regs[i] = pagedev.PipeRegion{Index: i, Box: pagedev.SubBox{Dim: [3]int{n1, n2, n3}}, Fold: true}
		}
		byDev[m.Index] = pagedev.Batch{Regions: regs}
		return d.Err()
	})
	if err != nil {
		return nil, err
	}
	if err := fanOut(ctx, s.coll, c, byDev, totals); err != nil {
		return nil, err
	}
	return results(c, totals), nil
}

// ApplyAll runs a registered map kernel over every element of every
// physical page on every device — one kernel batch per device, no
// element data on the wire. (Unlike Array.Apply it covers physical
// pages the PageMap may leave unmapped; use it to initialize storage,
// not to transform a subdomain.)
func (b *BlockStorage) ApplyAll(ctx context.Context, name string, params ...float64) error {
	_, err := b.runAll(ctx, kernel.MapStage(name), params)
	return err
}

// ReduceAll folds a registered reduction kernel over every element of
// every physical page on every device: per-device partials computed by
// the data server processes, merged client-side in device order. It
// returns the combined accumulator and the element count folded; an
// empty storage returns the kernel identity with n == 0.
func (b *BlockStorage) ReduceAll(ctx context.Context, name string, params ...float64) (acc []float64, n int64, err error) {
	res, err := b.runAll(ctx, kernel.ReduceStage(name), params)
	if err != nil {
		return nil, 0, err
	}
	return res[0].Acc, res[0].N, nil
}

// FillAll sets every element of every page on every device to v — the
// whole-storage fill broadcast, now a kernel collective.
func (b *BlockStorage) FillAll(ctx context.Context, v float64) error {
	return b.ApplyAll(ctx, kernel.Fill, v)
}

// SumAll reduces the element sum of every page on every device — the
// whole-storage combining reduction (partial sums computed by the data
// server processes, combined client-side, §5).
func (b *BlockStorage) SumAll(ctx context.Context) (float64, error) {
	acc, _, err := b.ReduceAll(ctx, kernel.Sum)
	if err != nil {
		return 0, err
	}
	return acc[0], nil
}

// IOStats aggregates the served (reads, writes) counters across all
// devices — the stat reduction of the storage collective.
func (b *BlockStorage) IOStats(ctx context.Context) (reads, writes int64, err error) {
	type rw struct{ r, w int64 }
	total, err := collection.Reduce(ctx, b.snap().coll, "stats", nil,
		func(_ collection.Member, d *wire.Decoder) (rw, error) {
			v := rw{r: d.Varint(), w: d.Varint()}
			return v, d.Err()
		},
		func(a, b rw) rw { return rw{a.r + b.r, a.w + b.w} })
	if err != nil {
		return 0, 0, err
	}
	return total.r, total.w, nil
}

// Barrier synchronizes with every device process: its completion proves
// every earlier message to every device was processed.
func (b *BlockStorage) Barrier(ctx context.Context) error { return b.snap().coll.Barrier(ctx) }

// Close deletes every device process, concurrently.
func (b *BlockStorage) Close(ctx context.Context) error { return b.snap().coll.Destroy(ctx) }
