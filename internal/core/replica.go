package core

// k-way page replication and heartbeat-triggered failover — ROADMAP
// item 2, the data-intensive reading of the paper's persistent-process
// §5: a page is no longer "as durable as the one device that owns it".
//
// Replication is a page table of k-address chains: NewReplicatedMap
// gives the page whose primary base address is (d, i) the chain whose
// replica r lives on device (d+r) mod D, at page index r·basePPD + i —
// each device's page space is split into k banks, bank r holding its
// rotation-r replicas. The table stays injective, every device carries
// the same page count (balanced capacity overhead of exactly k×), and a
// chain never names a device twice when k ≤ D.
//
// Write semantics ("primary-ack"): mutating operations fan out to the
// whole replica set through the split loop every transfer uses
// (rmi.SplitLoop); the operation succeeds iff at least one replica of
// every touched page acknowledges, and replicas that fail with the
// typed ErrMachineDown are tolerated (counted in DegradedWrites) — any
// other error still fails the operation. One tally (ackTally) makes
// that call for Write and the kernel fan-out alike. Kernels
// are deterministic, so applying the same batch at every replica keeps
// replica contents bitwise identical without a coordination round.
//
// Read semantics: element reads and reductions are served by a *live*
// replica of the chain, rotated per call (the failure detector's
// verdicts narrow the candidates; a call-time race that still hits a
// dying machine retries on the next replica). Replication therefore
// doubles as read scaling for hot pages: one client's repeated reads of
// the same page spread across its whole replica set.
//
// Failover (Array.Failover) re-mints the page map after the heartbeat
// declares machines down: in a copy of the map's chains, as MigratePages
// edits them, dead devices are dropped from every chain
// (the first survivor is promoted to acting primary), lost replicas
// are re-seeded onto spare page slots of surviving devices by copyPages
// (halo.go) — no element data passes through the client —
// and remint hands the edited chains to the map constructor.
// Pages whose whole chain died are reported as Lost; for the k=1 case,
// recover.go's checkpoint/cold-recovery path restores them from a
// persist store on a surviving machine.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"oopp/internal/rmi"
	"oopp/internal/trace"
)

// NewReplicatedMap builds the k-way replicated table over base: replica
// r of the page whose primary base address is (d, i) lives on device
// (d+r) mod D at page index r·basePPD + i (bank r of the device), so
// PagesPerDevice is k times the base map's. k must be in [1,
// base.devices]: more replicas than devices would put two copies of a
// page on one device, which survives nothing. The name is "<base>+r<k>"
// (the base's for k=1), which NewPageMap parses back.
func NewReplicatedMap(base PageMap, k int) (PageMap, error) {
	if base == nil {
		return nil, fmt.Errorf("core: replicated map needs a base layout")
	}
	if k < 1 || k > base.devices {
		return nil, fmt.Errorf("core: replication factor %d outside [1,%d devices]", k, base.devices)
	}
	name := base.name
	if k > 1 {
		name = fmt.Sprintf("%s+r%d", name, k)
	}
	// One slab backs every chain: one allocation, not one per page.
	slab, chains := make([]PageAddress, len(base.chains)*k), make([][]PageAddress, len(base.chains))
	for l, chain := range base.chains {
		chains[l] = slab[l*k : (l+1)*k : (l+1)*k]
		for r := range chains[l] {
			chains[l][r] = PageAddress{Device: (chain[0].Device + r) % base.devices, Index: r*base.ppd + chain[0].Index}
		}
	}
	return newPageMap(base.grid, k, k*base.ppd, name, chains, nil), nil
}

// parseReplicaSuffix splits "striped+r2" into ("striped", 2, true).
func parseReplicaSuffix(name string) (base string, k int, ok bool) {
	i := strings.LastIndex(name, "+r")
	if i < 0 {
		return name, 1, false
	}
	n, err := strconv.Atoi(name[i+2:])
	if err != nil || n < 1 {
		return name, 1, false
	}
	return name[:i], n, true
}

// remint builds the map a mutation of pm leaves behind: table (a mutated
// copy of pm's chains) over the array's devices — the storage's count,
// which a join may have grown past pm's — under pm's name with marker —
// "+failover" or "+resharded" — appended unless the name already ends in
// it, so repeating a mutation never grows the name. The markers are for
// people: no name rebuilds a table (NewPageMap rejects them), a
// descriptor carries it (checkpoint.go). pm's capacity requirement is
// the floor: a later Failover takes its spare slots from above it.
func (a *Array) remint(pm PageMap, table [][]PageAddress, moved map[PageAddress]PageAddress, marker string) PageMap {
	name := pm.name
	if !strings.HasSuffix(name, marker) {
		name += marker
	}
	g := pm.grid
	g.devices = a.storage.Len()
	return newPageMap(g, pm.k, pm.ppd, name, table, moved)
}

// machineUp reports whether the storage device's machine is not
// currently marked down by the failure detector.
func (a *Array) machineUp(dev int) bool {
	client := a.storage.Client()
	if client == nil {
		return true
	}
	return client.MachineDown(a.storage.MachineOf(dev)) == nil
}

// pickLive returns a replica in the chain whose device is not excluded
// and whose machine is not marked down, rotating across the live
// candidates (per-Array round-robin counter) so a hot page's read load
// spreads over its whole replica set instead of hammering the chain
// primary. When every replica is down it returns the first non-excluded
// one (so the operation fails with the typed machine-down error instead
// of inventing its own), and ok=false only when exclusion leaves no
// replica at all.
func (a *Array) pickLive(chain []PageAddress, exclude map[int]bool) (PageAddress, bool) {
	var fallback *PageAddress
	live := make([]PageAddress, 0, 8) // on the stack for k ≤ 8
	for i := range chain {
		if exclude[chain[i].Device] {
			continue
		}
		if fallback == nil {
			fallback = &chain[i]
		}
		if a.machineUp(chain[i].Device) {
			live = append(live, chain[i])
		}
	}
	switch len(live) {
	case 0:
		if fallback != nil {
			return *fallback, true
		}
		return PageAddress{}, false
	case 1:
		return live[0], true
	default:
		return live[a.rr.Add(1)%uint64(len(live))], true
	}
}

// ackTally is the one primary-ack classifier: every replica write
// outcome of a mutating operation — Write's page calls, a kernel
// fan-out's failed devices (coverDown) — is recorded
// against the region it served. A region is acknowledged when at least
// one replica of its chain took the write; its replicas that failed with
// the typed machine-down error are then tolerated and counted in
// DegradedWrites, and any other failure is hard.
type ackTally struct {
	a    *Array
	regs []struct{ acked, missed, left int }
}

func (a *Array) newAckTally(regs []region) *ackTally {
	t := &ackTally{a: a, regs: make([]struct{ acked, missed, left int }, len(regs))}
	for i, r := range regs {
		t.regs[i].left = len(r.chain)
	}
	return t
}

// record classifies one replica's outcome for region ri and returns the
// error the operation must stop with, if any: a hard failure at once, the
// machine-down error once the region's whole chain has reported without
// a single acknowledgement.
func (t *ackTally) record(ri int, err error) error {
	r := &t.regs[ri]
	r.left--
	switch {
	case err == nil:
		r.acked++
	case errors.Is(err, rmi.ErrMachineDown):
		r.missed++
	default:
		return err
	}
	if r.left == 0 {
		if r.acked == 0 {
			return err // the chain's last report: a machine-down error
		}
		t.a.degraded.Add(int64(r.missed))
	}
	return nil
}

// coverDown settles a mutate-only kernel fan-out whose failed devices
// all failed machine-down (err): it returns nil — absorbing the error as
// degraded writes — iff every region in regs still has at least one
// replica on a device outside failed.
func (a *Array) coverDown(err error, regs []region, failed []int) error {
	t := a.newAckTally(regs)
	for i, r := range regs {
		for _, addr := range r.chain {
			var outcome error
			if slices.Contains(failed, addr.Device) {
				outcome = err
			}
			if stop := t.record(i, outcome); stop != nil {
				return stop
			}
		}
	}
	return nil
}

// DegradedWrites returns the number of replica writes this client has
// tolerated against machines marked down (each tolerated region/replica
// pair counts once). Nonzero means the array is running below its
// nominal replication factor; run Failover to re-mint the map and
// re-seed.
func (a *Array) DegradedWrites() int64 { return a.degraded.Load() }

// FailoverReport summarizes one Failover pass.
type FailoverReport struct {
	DeadDevices []int // storage device indices declared dead
	Promoted    int   // pages whose acting primary changed
	Reseeded    int   // replicas rebuilt onto survivors' spare slots
	Degraded    int   // pages left below the nominal replica count
	Lost        []int // linear page indices with no surviving replica
}

// Failover re-mints the page map after the failure detector declares
// machines dead, restoring full service on the survivors:
//
//   - every dead device is dropped from every replica chain, promoting
//     the first survivor to acting primary;
//   - each lost replica is re-seeded onto a surviving device that has
//     spare page slots beyond the map's nominal requirement (devices
//     provisioned with pagesPerDevice > map.PagesPerDevice() have
//     them), copied device-to-device from the acting primary: one
//     kernel.Copy batch per destination device, an applyPipelineK like
//     every collective's, that names each source device once;
//   - the array's map is atomically replaced with the re-minted table,
//     so subsequent reads, writes, and kernels address only survivors.
//
// Pages whose entire chain died are reported in Lost and keep failing
// typed; with k=1 use the checkpoint/cold-recovery path instead.
// Failover is idempotent — re-running it with the same dead set is a
// no-op — and must not race other operations *on the same Array
// value* (separate Array clients over the same storage are fine; each
// runs its own failover when it observes the verdict).
func (a *Array) Failover(ctx context.Context, deadMachines ...int) (*FailoverReport, error) {
	// One span brackets the whole repair (drop + re-seed + flip): on a
	// sampled trace, the recovery cost shows as a single block whose
	// children are the device-to-device re-seed batches.
	ctx, sp := trace.StartSpan(ctx, "failover")
	rep, err := a.failover(ctx, deadMachines...)
	sp.End(err != nil)
	return rep, err
}

func (a *Array) failover(ctx context.Context, deadMachines ...int) (*FailoverReport, error) {
	deadDevs := make(map[int]bool)
	var deadList []int
	for d := 0; d < a.storage.Len(); d++ {
		if slices.Contains(deadMachines, a.storage.MachineOf(d)) {
			deadDevs[d] = true
			deadList = append(deadList, d)
		}
	}
	pm := a.Map()
	rep := &FailoverReport{DeadDevices: deadList}
	if len(deadDevs) == 0 {
		return rep, nil
	}
	need := pm.PagesPerDevice()

	// Spare capacity per surviving device: page slots past the map's
	// nominal requirement. One NumPages round per device; re-seed
	// allocation walks pages in linear order, so the layout is
	// deterministic given the same dead set.
	nextFree := make([]int, a.storage.Len())
	capacity := make([]int, a.storage.Len())
	for d := 0; d < a.storage.Len(); d++ {
		if deadDevs[d] {
			continue
		}
		n, err := a.storage.Device(d).NumPages(ctx)
		if err != nil {
			return rep, fmt.Errorf("core: failover: sizing device %d: %w", d, err)
		}
		capacity[d] = n
		nextFree[d] = need
	}

	// Drop the dead from every chain of the table; re-seeds pull whole
	// pages from the acting primary.
	table := pm.table()
	var seeds []pageCopy
	for l, chain := range table {
		live := make([]PageAddress, 0, len(chain))
		for _, addr := range chain {
			if !deadDevs[addr.Device] {
				live = append(live, addr)
			}
		}
		if len(live) == 0 {
			rep.Lost = append(rep.Lost, l) // the chain stays: fail typed, not by panic
			continue
		}
		if live[0] != chain[0] {
			rep.Promoted++
		}
		// Re-seed each lost replica onto the next device in the
		// rotation order that is alive, holds no copy of this
		// page, and has a spare slot.
		for lost := len(chain) - len(live); lost > 0; lost-- {
			dst, ok := a.spareSlot(live, chain, deadDevs, nextFree, capacity)
			if !ok {
				rep.Degraded++
				break
			}
			seeds = append(seeds, pageCopy{dst, live[0]})
			live = append(live, dst)
			rep.Reseeded++
		}
		table[l] = live
	}
	if err := a.copyPages(ctx, seeds); err != nil {
		return rep, fmt.Errorf("core: failover: re-seeding replicas: %w", err)
	}
	a.setMap(a.remint(pm, table, nil, "+failover"))
	return rep, nil
}

// spareSlot picks the re-seed destination for one lost replica: walk
// the rotation order starting after the original chain, skipping dead
// devices, devices already holding the page, and devices out of spare
// slots.
func (a *Array) spareSlot(live, chain []PageAddress, deadDevs map[int]bool, nextFree, capacity []int) (PageAddress, bool) {
	d0 := chain[0].Device
	D := a.storage.Len()
	for step := 1; step < D; step++ {
		cand := (d0 + step) % D
		holds := slices.ContainsFunc(live, func(c PageAddress) bool { return c.Device == cand })
		if deadDevs[cand] || holds || nextFree[cand] >= capacity[cand] {
			continue
		}
		slot := PageAddress{Device: cand, Index: nextFree[cand]}
		nextFree[cand]++
		return slot, true
	}
	return PageAddress{}, false
}
