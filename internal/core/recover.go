package core

// Cross-machine checkpoint and cold recovery — the k=1 complement of
// replica failover. Where Failover keeps a replicated array live through
// a machine loss (no data loss, no downtime), an unreplicated array has
// exactly one copy of each page; once the hosting machine is gone, so is
// the data. CheckpointArray bounds that loss: it ships every device's
// full representation (the SaveState blob passivation produces) to a
// persist store on another machine, where it survives the array's own
// machines. RecoverArray rebuilds the whole array from those blobs on
// the store's machine — writes since the checkpoint are lost, which is
// the k=1 deal.

import (
	"context"
	"fmt"

	"oopp/internal/pagedev"
	"oopp/internal/persist"
	"oopp/internal/rmi"
	"oopp/internal/trace"
	"oopp/internal/wire"
)

// checkpointMetaName and checkpointDevName derive the store blob names of
// a checkpoint, mirroring the symbolic-address scheme of PublishArray.
func checkpointMetaName(name string) string { return name + "/meta" }

func checkpointDevName(name string, i int) string { return fmt.Sprintf("%s/dev/%d", name, i) }

// CheckpointArray saves a consistent snapshot of arr under name in store
// — a descriptor blob (geometry + layout) plus one blob per storage
// device. Each device serializes itself inside its serial mailbox, so
// every page snapshot is atomic with respect to concurrent operations on
// that device; the devices stay live throughout. Run it at a quiescent
// point (after Barrier) if the snapshot must be consistent *across*
// devices. The store should live on a machine the array does not — a
// checkpoint on the array's own machine dies with it.
func CheckpointArray(ctx context.Context, arr *Array, store *persist.Store, name string) error {
	ctx, sp := trace.StartSpan(ctx, "checkpoint")
	err := checkpointArray(ctx, arr, store, name)
	sp.End(err != nil)
	return err
}

func checkpointArray(ctx context.Context, arr *Array, store *persist.Store, name string) error {
	N1, N2, N3 := arr.Dims()
	p1, p2, p3 := arr.PageDims()
	meta := &arrayMeta{
		n1: N1, n2: N2, n3: N3,
		p1: p1, p2: p2, p3: p3,
		layout:  arr.Map().Name(),
		devices: arr.Storage().Len(),
	}
	e := wire.NewEncoder(64)
	meta.encode(e)
	if err := store.Put(ctx, checkpointMetaName(name), ClassArrayMeta, e.Bytes()); err != nil {
		return fmt.Errorf("core: checkpointing descriptor: %w", err)
	}
	st := arr.Storage()
	return rmi.SplitLoop(ctx, st.Len(), arr.inFlight(), func(i int) *rmi.Future {
		return st.Device(i).CheckpointToAsync(ctx, store.Ref(), checkpointDevName(name, i))
	}, nil)
}

// RecoverArray rebuilds the array checkpointed under name from store,
// activating every device blob on the store's machine (cold recovery: the
// original machines are presumed gone, so the whole array lands on the
// survivor — degraded locality, full data). The blobs stay in the store,
// so recovery is repeatable.
func RecoverArray(ctx context.Context, client *rmi.Client, store *persist.Store, name string) (*Array, error) {
	ctx, sp := trace.StartSpan(ctx, "recover")
	arr, err := recoverArray(ctx, client, store, name)
	sp.End(err != nil)
	return arr, err
}

func recoverArray(ctx context.Context, client *rmi.Client, store *persist.Store, name string) (*Array, error) {
	metaRef, err := store.Activate(ctx, checkpointMetaName(name))
	if err != nil {
		return nil, fmt.Errorf("core: recovering descriptor: %w", err)
	}
	d, err := client.Call(ctx, metaRef, "describe", nil)
	if err != nil {
		return nil, err
	}
	meta := &arrayMeta{}
	derr := meta.decode(d)
	d.Release()
	_ = client.Delete(ctx, metaRef) // transient: only needed for describe
	if derr != nil {
		return nil, derr
	}
	pm, err := NewPageMap(meta.layout, meta.n1/meta.p1, meta.n2/meta.p2, meta.n3/meta.p3, meta.devices)
	if err != nil {
		return nil, err
	}
	devices := make([]*pagedev.ArrayDevice, meta.devices)
	for i := range devices {
		ref, err := store.Activate(ctx, checkpointDevName(name, i))
		if err != nil {
			return nil, fmt.Errorf("core: recovering device %d: %w", i, err)
		}
		devices[i] = pagedev.AttachArrayDevice(client, ref, meta.p1, meta.p2, meta.p3)
	}
	return NewArray(ctx, NewBlockStorage(devices), pm, meta.n1, meta.n2, meta.n3, meta.p1, meta.p2, meta.p3)
}

// RemoveCheckpoint discards the blobs of a checkpoint (descriptor and
// devices devices).
func RemoveCheckpoint(ctx context.Context, store *persist.Store, name string, devices int) error {
	var firstErr error
	for i := 0; i < devices; i++ {
		if err := store.Remove(ctx, checkpointDevName(name, i)); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := store.Remove(ctx, checkpointMetaName(name)); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
