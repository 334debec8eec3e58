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

	"oopp/internal/persist"
	"oopp/internal/rmi"
	"oopp/internal/trace"
	"oopp/internal/wire"
)

// CheckpointArray saves a consistent snapshot of arr under name in store
// — a descriptor blob (geometry + layout) plus one blob per storage
// device. Each device serializes itself inside its serial mailbox, so
// every page snapshot is atomic with respect to concurrent operations on
// that device; the devices stay live throughout. Run it at a quiescent
// point (after Barrier) if the snapshot must be consistent *across*
// devices. The store should live on a machine the array does not — a
// checkpoint on the array's own machine dies with it.
func CheckpointArray(ctx context.Context, arr *Array, store *persist.Store, name string) (err error) {
	ctx, sp := trace.StartSpan(ctx, "checkpoint")
	defer func() { sp.End(err != nil) }()
	e := wire.NewEncoder(64)
	metaCodec.Put(e, describe(arr))
	if err := store.Put(ctx, memberName(name, -1), arrayMetaClass.Name(), e.Bytes()); err != nil {
		return fmt.Errorf("core: checkpointing descriptor: %w", err)
	}
	st := arr.Storage()
	return rmi.SplitLoop(ctx, st.Len(), arr.inFlight(), func(i int) *rmi.Future {
		return st.Device(i).CheckpointToAsync(ctx, store.Ref(), memberName(name, i))
	}, nil)
}

// RecoverArray rebuilds the array checkpointed under name from store,
// activating every device blob on the store's machine (cold recovery: the
// original machines are presumed gone, so the whole array lands on the
// survivor — degraded locality, full data). The blobs stay in the store,
// so recovery is repeatable.
func RecoverArray(ctx context.Context, client *rmi.Client, store *persist.Store, name string) (arr *Array, err error) {
	ctx, sp := trace.StartSpan(ctx, "recover")
	defer func() { sp.End(err != nil) }()
	metaRef, err := store.Activate(ctx, memberName(name, -1))
	if err != nil {
		return nil, fmt.Errorf("core: recovering descriptor: %w", err)
	}
	meta, err := metaDescribe.Call(ctx, client, metaRef, struct{}{})
	_ = client.Delete(ctx, metaRef) // transient: only needed for describe
	if err != nil {
		return nil, err
	}
	return assemble(ctx, client, meta, func(i int) (rmi.Ref, error) { return store.Activate(ctx, memberName(name, i)) })
}

// RemoveCheckpoint discards the blobs of a checkpoint (descriptor and
// devices devices).
func RemoveCheckpoint(ctx context.Context, store *persist.Store, name string, devices int) error {
	return eachMember(devices, func(i int) error { return store.Remove(ctx, memberName(name, i)) })
}
