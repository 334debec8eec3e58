package exp

import (
	"fmt"
	"math"

	"oopp/internal/core"
	"oopp/internal/elastic"
)

// maxMigrationOverhead is the acceptance bound on elastic migration's
// traffic: a rebalance may ship at most this multiple of the moved
// pages' raw payload — equivalently, at most 1.1× the
// (moved-pages / total-pages) fraction of what a naive full rebuild
// (rewrite every page through the client) would move. The budget above
// 1.0 covers message framing and the fence/adopt control traffic. The
// experiment fails if the measured ratio exceeds it.
const maxMigrationOverhead = 1.1

// E16 — the elastic cluster: a device joins a running array, the
// load-aware rebalancer flows it a fair share of pages device-to-device
// (moving only what must move, nowhere near a full rebuild), and
// DrainMachine empties a machine completely with the data intact — the
// planned-decommission counterpart of E15's unplanned failover.
var e16 = Experiment{
	ID:    "E16",
	Title: "Elastic cluster: join, load-aware rebalance, and machine drain",
	Claim: "live page migration reshards a running array device-to-device, shipping only the " +
		fmt.Sprintf("moved pages (gated at %.1fx their raw payload, vs a naive full rebuild), ", maxMigrationOverhead) +
		"and drains a machine to zero pages with contents intact",
	Columns: []string{"op", "config", "pages moved", "KB moved", "µs/op", "vs full rebuild"},
	pinned:  map[string]rule{"op": label, "config": label, "pages moved": exact, "KB moved": kbytes},
	run: func(x *run) error {
		const devices = 4
		const N, n = 32, 8 // 4³ pages of 8³ elements: 4 KiB payload per page
		grid := N / n
		totalPages := grid * grid * grid
		pageBytes := n * n * n * 8

		// Every device has room for the whole array.
		_, arr, err := x.replicated(devices, 1, N, n, totalPages)
		if err != nil {
			return err
		}
		full := core.Box(N, N, N)
		if err := arr.Fill(bg, full, 1); err != nil {
			return err
		}
		want := float64(full.Size())
		exactSum := func(when string) error {
			if sum, err := arr.Sum(bg, full); err != nil || math.Abs(sum-want) > 1e-9*want {
				return fmt.Errorf("E16: post-%s sum %v, %v; want %v", when, sum, err, want)
			}
			return nil
		}

		// Skew the layout: empty device 3 onto the others, giving the exact
		// occupancy shape of a machine that just joined an established
		// cluster. The rebalancer must undo it with minimal moves.
		if _, err := arr.DrainMachine(bg, 3); err != nil {
			return fmt.Errorf("E16: skewing layout: %w", err)
		}

		var rep *core.RebalanceReport
		s, err := measure(0, 1, func() (err error) {
			rep, err = arr.Rebalance(bg, core.RebalanceConfig{})
			return err
		})
		if err != nil {
			return fmt.Errorf("E16: rebalance: %w", err)
		}
		if rep.Skipped != 0 || rep.Moved == 0 || rep.Moved != elastic.MovedPages(rep.Plan) {
			return fmt.Errorf("E16: rebalance executed %d of planned %d (skipped %d)",
				rep.Moved, elastic.MovedPages(rep.Plan), rep.Skipped)
		}
		// The traffic gate: everything the rebalance put on the wire,
		// control messages included, against the moved payload — and against
		// the full rebuild a system without live migration would need.
		naiveKB := float64(totalPages*pageBytes) / 1024
		budgetKB := maxMigrationOverhead * float64(rep.Moved*pageBytes) / 1024
		if s.kb > budgetKB {
			return fmt.Errorf("E16: rebalance shipped %.1f KB for %d pages, above the %.1f KB budget (%.1fx payload)",
				s.kb, rep.Moved, budgetKB, maxMigrationOverhead)
		}
		x.AddRow("rebalance", fmt.Sprintf("%d pages, newcomer empty", totalPages),
			fmt.Sprintf("%d", rep.Moved), fmt.Sprintf("%.1f", s.kb), usPrec(s.per),
			fmt.Sprintf("%.2fx (gate %.2fx)", s.kb/naiveKB,
				maxMigrationOverhead*float64(rep.Moved)/float64(totalPages)))
		if err := exactSum("rebalance"); err != nil {
			return err
		}

		// Drain: every page off machine 2, complete-or-fail, data intact.
		var drep *core.MigrateReport
		s, err = measure(0, 1, func() (err error) {
			drep, err = arr.DrainMachine(bg, 2)
			return err
		})
		if err != nil {
			return fmt.Errorf("E16: drain: %w", err)
		}
		if left := copiesOnDevice(arr, 2); left != 0 {
			return fmt.Errorf("E16: drained device still maps %d pages", left)
		}
		if err := exactSum("drain"); err != nil {
			return err
		}
		x.AddRow("drain machine", fmt.Sprintf("%d pages held", drep.Moved),
			fmt.Sprintf("%d", drep.Moved), fmt.Sprintf("%.1f", s.kb), usPrec(s.per),
			"0 pages left, sum exact")

		x.Note("rebalance row: the planner moves only each device's surplus — KB moved is gated at %.1fx the moved pages' payload, a %d-page full rebuild would ship %.0f KB", maxMigrationOverhead, totalPages, naiveKB)
		x.Note("drain row: DrainMachine is complete-or-fail; the gate asserts the machine ends with zero mapped pages and the array sums exactly")
		x.Note("both run under the write fence: concurrent clients park on fenced pages and replay after the map flip (see the migration chaos CI job for the under-load run)")
		return nil
	},
}

// copiesOnDevice counts page copies the array's current map places on
// device d. The array is replicated (k=1), and so is every map a
// migration leaves it.
func copiesOnDevice(arr *core.Array, d int) int {
	pm := arr.Map().(core.ReplicaMap)
	P1, P2, P3 := arr.GridDims()
	count := 0
	for p := 0; p < P1*P2*P3; p++ {
		for _, addr := range pm.LocateAll(p/(P2*P3), p/P3%P2, p%P3) {
			if addr.Device == d {
				count++
			}
		}
	}
	return count
}
