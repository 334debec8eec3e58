package core

// Live page migration — ROADMAP item "elastic cluster": page placement
// becomes a mutable property of a running array. The engine relocates
// page copies device-to-device with the copyPages failover re-seeding
// uses (halo.go), under a brief per-page write fence:
//
//	fence src pages  → every in-flight mutator drains (fencePages is a
//	                   serial mailbox method), then writes to the pages
//	                   are refused typed (rmi.ErrFenced); reads flow
//	copy src → dst   → the fenced pages are an immutable snapshot, so
//	                   the device-to-device copy needs no quiescing
//	flip the map     → a re-minted map (remint in replica.go, name
//	                   marker "+resharded") atomically replaces the
//	                   layout; new operations address the destinations
//	adopt / retire   → destination accounting (adoptPages), then the
//	                   sources release their held-pages gauge but KEEP
//	                   their fence entries, so clients still holding the
//	                   pre-flip map get the typed refusal instead of
//	                   writing into dead slots
//
// Operations on the migrating Array value never fail from the fence:
// every mutator — Write and every kernel chain, CopyFrom among them —
// parks on ErrFenced, waits for the flip, and replays exactly the
// refused work against the fresh layout (each device batch is refused
// all-or-nothing, so the replay never double-applies a non-idempotent
// kernel — see pagedev's fence pre-scan). Separate Array clients over
// the same storage observe typed ErrFenced errors while a foreign
// migration is in flight, exactly as they observe ErrMachineDown before
// running their own Failover.
//
// Which pages move is decided here; *how many* move between which
// devices is the elastic planner's job (internal/elastic): Rebalance
// executes elastic.Balance over observed page counts and I/O gauges,
// DrainMachine executes elastic.DrainPlan for every device of a
// machine that is about to leave.

import (
	"context"
	"fmt"
	"time"

	"oopp/internal/elastic"
	"oopp/internal/rmi"
	"oopp/internal/trace"
)

const (
	// maxFenceRetries bounds how many park-and-replay rounds an
	// operation attempts (each round means it raced a distinct map
	// flip — more than a couple is pathological).
	maxFenceRetries = 4
	// fenceFlipWait bounds how long a parked operation waits for the
	// in-process map flip before surfacing the typed fence error (a
	// foreign client's migration never flips OUR map, so the wait must
	// not be unbounded).
	fenceFlipWait = 5 * time.Second
)

// MigrateReport summarizes one MigratePages execution.
type MigrateReport struct {
	Moved   int   // page copies relocated
	Bytes   int64 // payload bytes shipped device-to-device
	Skipped int   // planned moves with no movable copy (replica-placement constraints)
}

// nonEmpty lists, ascending, the devices whose per-device work list has
// entries.
func nonEmpty[T any](perDev [][]T) (devs []int) {
	for d := range perDev {
		if len(perDev[d]) > 0 {
			devs = append(devs, d)
		}
	}
	return devs
}

// MigratePages executes a move plan: for each Move it picks movable
// copies on the From device (ones whose chain does not already touch
// To), fences them, copies them device-to-device, flips the map, and
// settles the gauges. Moves that cannot be fully honored (every
// remaining chain already has a copy on To, or To is out of slots) are
// partially executed and the shortfall reported in Skipped — capacity
// and placement truth live here, not in the planner.
//
// MigratePages must not race Failover or another migration on the same
// Array value; concurrent Reads, Writes, and kernels on this value are
// the point of the design and are safe throughout.
func (a *Array) MigratePages(ctx context.Context, plan []elastic.Move) (*MigrateReport, error) {
	rep := &MigrateReport{}
	if len(plan) == 0 {
		return rep, nil
	}
	pm := a.Map()
	D := a.storage.Len()
	for _, mv := range plan {
		if mv.From < 0 || mv.From >= D || mv.To < 0 || mv.To >= D || mv.From == mv.To || mv.Pages < 0 {
			return rep, fmt.Errorf("core: migrate: bad move %+v over %d devices", mv, D)
		}
	}
	table := pm.table()

	// Occupancy from the table; everything else in [0, NumPages) is
	// allocatable — including slots retired by earlier migrations (their
	// stale fences are cleared before the copy).
	used := make(map[PageAddress]bool)
	for _, chain := range table {
		for _, addr := range chain {
			used[addr] = true
		}
	}
	caps := make([]int, D)
	for _, mv := range plan {
		if caps[mv.To] != 0 {
			continue
		}
		n, err := a.storage.Device(mv.To).NumPages(ctx)
		if err != nil {
			return rep, fmt.Errorf("core: migrate: sizing device %d: %w", mv.To, err)
		}
		caps[mv.To] = n
	}
	next := make([]int, D)
	allocate := func(d int) (int, bool) {
		for next[d] < caps[d] {
			slot := PageAddress{Device: d, Index: next[d]}
			next[d]++
			if !used[slot] {
				used[slot] = true
				return slot.Index, true
			}
		}
		return 0, false
	}

	// Select victims. The table is updated eagerly as copies are
	// assigned, so the no-two-copies-per-device invariant holds against
	// pending relocations too, and `pinned` keeps a copy from being
	// selected twice in one round (its data hasn't moved yet). Each
	// relocation is recorded four ways: the source slot to fence and the
	// destination slot to claim (per device), the pull that copies it,
	// and its entry in the flipped map's moved index.
	srcIdx := make([][]int, D)
	dstIdx := make([][]int, D)
	var copies []pageCopy
	moved := make(map[PageAddress]PageAddress)
	pinned := make(map[[2]int]bool)
	for _, mv := range plan {
		left := mv.Pages
		for l := 0; l < len(table) && left > 0; l++ {
			chain := table[l]
			onTo, pos := false, -1
			for p, addr := range chain {
				if addr.Device == mv.To {
					onTo = true
				}
				if addr.Device == mv.From && pos < 0 && !pinned[[2]int{l, p}] {
					pos = p
				}
			}
			if pos < 0 || onTo {
				continue
			}
			idx, ok := allocate(mv.To)
			if !ok {
				break
			}
			src, dst := chain[pos], PageAddress{Device: mv.To, Index: idx}
			srcIdx[src.Device] = append(srcIdx[src.Device], src.Index)
			dstIdx[dst.Device] = append(dstIdx[dst.Device], dst.Index)
			copies = append(copies, pageCopy{dst, src})
			moved[src] = dst
			chain[pos] = dst
			pinned[[2]int{l, pos}] = true
			left--
		}
		rep.Skipped += left
	}
	if len(moved) == 0 {
		return rep, nil
	}
	srcDevs, dstDevs := nonEmpty(srcIdx), nonEmpty(dstIdx)

	// Fence the sources. fencePages is serial, so each return proves
	// every earlier mutator on that device completed: from here the
	// source pages are an immutable, consistent snapshot. Each migration
	// phase gets its own span when the caller's trace is sampled, so a
	// slow migration shows *which* phase ate the time.
	// abort unfences every source device, the failed one too: it may have
	// fenced and lost the reply; unfencing an unfenced page does nothing.
	abort := func() {
		for _, d := range srcDevs {
			_ = a.storage.Device(d).UnfencePages(ctx, srcIdx[d], false)
		}
	}
	fenceCtx, fenceSp := trace.StartSpan(ctx, "migrate.fence")
	for _, d := range srcDevs {
		if err := a.storage.Device(d).FencePages(fenceCtx, srcIdx[d]); err != nil {
			fenceSp.End(true)
			abort()
			return rep, fmt.Errorf("core: migrate: fencing device %d: %w", d, err)
		}
	}
	// Reclaim destination slots retired by earlier migrations: clearing
	// a fence that isn't set is a no-op, so this is safe to run blanket.
	for _, d := range dstDevs {
		if err := a.storage.Device(d).UnfencePages(fenceCtx, dstIdx[d], false); err != nil {
			fenceSp.End(true)
			abort()
			return rep, fmt.Errorf("core: migrate: reclaiming slots on device %d: %w", d, err)
		}
	}
	fenceSp.End(false)

	// Copy device-to-device — one kernel.Copy batch per destination
	// device, as Failover's re-seeding; no element data through the client.
	copyCtx, copySp := trace.StartSpan(ctx, "migrate.copy")
	err := a.copyPages(copyCtx, copies)
	copySp.End(err != nil)
	if err != nil {
		abort()
		return rep, fmt.Errorf("core: migrate: copying pages: %w", err)
	}

	// Flip: the re-minted table becomes the layout in one atomic swap.
	// The moved index lets parked operations translate a refused copy's
	// pre-flip address to its new home (relocatedAddr).
	flipCtx, flipSp := trace.StartSpan(ctx, "migrate.flip")
	a.setMap(a.remint(pm, table, moved, "+resharded"))

	// Settle the gauges: destinations adopt, sources retire (the fence
	// entries persist — see the package comment in pagedev/fence.go).
	pageBytes := int64(a.p[0]) * int64(a.p[1]) * int64(a.p[2]) * 8
	for _, d := range dstDevs {
		if err := a.storage.Device(d).AdoptPages(flipCtx, len(dstIdx[d]), int64(len(dstIdx[d]))*pageBytes); err != nil {
			flipSp.End(true)
			return rep, fmt.Errorf("core: migrate: adopting on device %d: %w", d, err)
		}
	}
	for _, d := range srcDevs {
		if err := a.storage.Device(d).UnfencePages(flipCtx, srcIdx[d], true); err != nil {
			flipSp.End(true)
			return rep, fmt.Errorf("core: migrate: retiring on device %d: %w", d, err)
		}
	}
	flipSp.End(false)
	rep.Moved = len(moved)
	rep.Bytes = int64(len(moved)) * pageBytes
	return rep, nil
}

// RebalanceConfig tunes Array.Rebalance.
type RebalanceConfig struct {
	// DryRun plans but does not migrate: the report carries the plan
	// the observed load would produce.
	DryRun bool
}

// RebalanceReport is the plan Rebalance computed and what executing it
// actually moved.
type RebalanceReport struct {
	Plan    []elastic.Move // the load-aware minimal-move plan
	Moved   int            // page copies relocated (0 on DryRun)
	Bytes   int64          // payload bytes shipped
	Skipped int            // planned moves placement constraints refused
}

// deviceLoads observes the planner's input: per-device page occupancy
// from the current map and the served-I/O gauge from each device.
func (a *Array) deviceLoads(ctx context.Context) ([]elastic.DeviceLoad, error) {
	D := a.storage.Len()
	pages := make([]int, D)
	for _, chain := range a.Map().chains {
		for _, addr := range chain {
			if addr.Device >= 0 && addr.Device < D {
				pages[addr.Device]++
			}
		}
	}
	loads := make([]elastic.DeviceLoad, D)
	for d := 0; d < D; d++ {
		cap, err := a.storage.Device(d).NumPages(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: rebalance: sizing device %d: %w", d, err)
		}
		reads, writes, err := a.storage.Device(d).Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("core: rebalance: reading device %d gauges: %w", d, err)
		}
		loads[d] = elastic.DeviceLoad{
			Device: d,
			Pages:  pages[d],
			Free:   cap - pages[d],
			Load:   reads + writes,
		}
	}
	return loads, nil
}

// Rebalance observes per-device occupancy and I/O load, plans the
// minimal-move correction (elastic.Balance), and executes it live:
// concurrent reads, writes, and kernels on this Array value keep
// running throughout (brief per-page parking during each flip). After a
// join (BlockStorage.AddDevice) this is what actually spreads the array
// onto the new device.
func (a *Array) Rebalance(ctx context.Context, cfg RebalanceConfig) (*RebalanceReport, error) {
	loads, err := a.deviceLoads(ctx)
	if err != nil {
		return nil, err
	}
	rep := &RebalanceReport{Plan: elastic.Balance(loads)}
	if cfg.DryRun || len(rep.Plan) == 0 {
		return rep, nil
	}
	m, err := a.MigratePages(ctx, rep.Plan)
	if m != nil {
		rep.Moved, rep.Bytes, rep.Skipped = m.Moved, m.Bytes, m.Skipped
	}
	return rep, err
}

// DrainMachine migrates every page copy off machine m's devices,
// spreading them across the rest of the cluster (elastic.DrainPlan —
// emptiest device first, coolest among equals). Devices on the drained
// machine never receive pages, including from each other. It fails if
// the drain cannot be complete — insufficient free slots elsewhere, or
// a chain that already spans every surviving device — leaving any pages
// it did move in place (they are valid wherever they live).
//
// The machine itself must still be up: the drain reads the pages off
// it. Compose with the serving tier's Server.Drain (stop admitting new
// work, then DrainMachine, then stop the process) for a clean leave;
// for a machine that already died, Failover is the tool, not a drain.
func (a *Array) DrainMachine(ctx context.Context, m int) (*MigrateReport, error) {
	total := &MigrateReport{}
	onM := make(map[int]bool)
	var drain []int // m's devices in ascending order: the drain, and the table it leaves, repeat run to run
	for d := 0; d < a.storage.Len(); d++ {
		if a.storage.MachineOf(d) == m {
			onM[d] = true
			drain = append(drain, d)
		}
	}
	if len(drain) == 0 {
		return total, fmt.Errorf("core: drain: machine %d has no devices of this array", m)
	}
	for _, d := range drain {
		loads, err := a.deviceLoads(ctx)
		if err != nil {
			return total, err
		}
		// The drained machine's devices must not absorb each other's
		// pages: zero their capacity in the planner's view.
		for i := range loads {
			if onM[loads[i].Device] {
				loads[i].Free = 0
			}
		}
		plan, err := elastic.DrainPlan(loads, d)
		if err != nil {
			return total, fmt.Errorf("core: drain machine %d: %w", m, err)
		}
		rep, err := a.MigratePages(ctx, plan)
		if rep != nil {
			total.Moved += rep.Moved
			total.Bytes += rep.Bytes
			total.Skipped += rep.Skipped
		}
		if err != nil {
			return total, err
		}
	}
	// Placement constraints (a chain spanning every device) can leave
	// copies behind even when capacity was fine: a drain must be
	// complete or report failure.
	for _, chain := range a.Map().chains {
		for _, addr := range chain {
			if onM[addr.Device] {
				return total, fmt.Errorf("core: drain machine %d: page copy %v could not be moved (chain spans every surviving device?)", m, addr)
			}
		}
	}
	return total, nil
}

// --- the park-and-replay half: operations surviving a live flip ---

// allFenced: every leaf is the mid-migration refusal, the class the
// park-and-replay path may absorb.
func allFenced(err error) bool { return allLeaves(err, rmi.ErrFenced) }

// waitMapFlip parks until the array's map snapshot differs from old —
// the migration that fenced our pages has flipped (setMap's signal) — or
// the bounded wait expires (a foreign client's migration never flips our
// map; its fence errors stay typed for the caller).
func (a *Array) waitMapFlip(ctx context.Context, old PageMap) (PageMap, error) {
	timeout := time.NewTimer(fenceFlipWait)
	defer timeout.Stop()
	for {
		a.pmMu.RLock()
		pm, flipped := a.pm, a.flipped
		a.pmMu.RUnlock()
		if pm != old {
			return pm, nil
		}
		select {
		case <-flipped:
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-timeout.C:
			return nil, fmt.Errorf("core: %w: map did not flip within %v (foreign migration?)", rmi.ErrFenced, fenceFlipWait)
		}
	}
}

// relocatedAddr translates a pre-flip copy address through the flipped
// map's moved index: where a fenced copy's refused work must be
// replayed. Addresses the migration didn't touch map to themselves
// (their batch was refused because a *neighbor* in it was fenced — the
// copy stayed put and still needs the work).
func relocatedAddr(pm PageMap, addr PageAddress) PageAddress {
	if dst, ok := pm.moved[addr]; ok {
		return dst
	}
	return addr
}
