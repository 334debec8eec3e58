package exp

import (
	"fmt"
	"math"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/rmi"
)

// maxWriteOverhead is the acceptance bound on replication's write cost:
// k=2 may move at most this multiple of the k=1 bytes per full-array
// write. The fan-out itself doubles the payload; the budget above 2.0
// covers per-replica framing. The experiment fails if the measured
// ratio exceeds it, so the bound is enforced on every run, not just
// eyeballed in the table.
const maxWriteOverhead = 2.2

// replicated builds a k-way replicated N³ array of n³ pages on a cluster
// of its own, one device per machine on a modeled link, each device with
// spare page slots beyond the map's.
func (x *run) replicated(devices, k, N, n, spare int) (*cluster.Cluster, *core.Array, error) {
	cl, err := x.modeled(devices)
	if err != nil {
		return nil, nil, err
	}
	arr, err := x.array(cl, fmt.Sprintf("roundrobin+r%d", k), N, n, spare)
	return cl, arr, err
}

// E15 — replicated pages: the write path pays for k-way durability (every
// page write fans out to all replicas, primary-ack), the read path does
// not (any one live replica serves), and failover — promoting survivors
// and re-seeding lost replicas device-to-device — completes in time
// proportional to the data held by the dead machine.
var e15 = Experiment{
	ID:    "E15",
	Title: "Replicated pages: write fan-out cost and failover recovery",
	Claim: "k-way page replication charges writes k fan-out copies (bounded by " +
		fmt.Sprintf("%.1fx", maxWriteOverhead) + " for k=2), leaves reads at one-replica cost," +
		" and recovers from a machine kill by re-seeding the dead machine's pages onto survivors",
	Columns: []string{"op", "config", "KB moved/op", "msgs/op", "µs/op", "vs k=1"},
	pinned:  map[string]rule{"op": label, "config": label, "KB moved/op": kbytes, "msgs/op": exact},
	run: func(x *run) error {
		const devices = 4
		const N, n = 16, 4
		row := func(op, config string, s sample, baseKB float64) {
			vs := "—"
			if baseKB > 0 {
				vs = fmt.Sprintf("%.2fx", s.kb/baseKB)
			}
			x.AddRow(op, config, fmt.Sprintf("%.1f", s.kb), fmt.Sprintf("%.1f", s.msgs), usPrec(s.per), vs)
		}

		full := core.Box(N, N, N)
		buf := make([]float64, full.Size())
		for i := range buf {
			buf[i] = float64(i%977) / 3
		}
		out := make([]float64, full.Size())

		// Steady-state cost per k: full-array write and full-array read.
		var base [2]sample // k=1's write and read
		for _, k := range []int{1, 2} {
			top := len(x.undo)
			_, arr, err := x.replicated(devices, k, N, n, 0)
			if err != nil {
				return err
			}
			w, err := measure(0, 3, func() error { return arr.Write(bg, buf, full) })
			if err != nil {
				return err
			}
			row("write", fmt.Sprintf("k=%d", k), w, base[0].kb)
			r, err := measure(0, 3, func() error { return arr.Read(bg, out, full) })
			if err != nil {
				return err
			}
			row("read", fmt.Sprintf("k=%d", k), r, base[1].kb)
			for i, v := range out {
				if v != buf[i] {
					return fmt.Errorf("E15: k=%d read back %v at %d, want %v", k, v, i, buf[i])
				}
			}
			if k == 1 {
				base = [2]sample{w, r}
			} else if w.kb > maxWriteOverhead*base[0].kb {
				return fmt.Errorf("E15: k=2 write moves %.1f KB/op, above the %.1fx bound over k=1's %.1f KB/op",
					w.kb, maxWriteOverhead, base[0].kb)
			}
			x.unwind(top)
		}

		// Failover: kill one machine, let the detector declare it, then time
		// the promotion + re-seed. Recovery traffic and time scale with the
		// pages the dead machine held, so two array sizes show the slope.
		for _, fn := range []int{8, 16} {
			if err := failoverOnce(x, devices, fn, n); err != nil {
				return err
			}
		}

		x.Note("write rows: every touched page fans out to all k replicas (primary-ack); the k=2 row is gated at %.1fx the k=1 bytes", maxWriteOverhead)
		x.Note("read rows: one live replica serves, so read traffic does not scale with k")
		x.Note("failover rows: µs/op is the Failover call alone (detection latency is the heartbeat's interval×misses, not measured here); re-seeding copies each lost page device-to-device once")
		return nil
	},
}

// failoverOnce builds a 2-way replicated N³ array with a spare slot for
// every one the map needs, kills machine 1, and measures the Failover
// call once the detector has declared the machine down. It verifies zero
// data loss (the post-failover sum matches), adds the call's row, and
// tears down what it built.
func failoverOnce(x *run, devices, N, n int) error {
	defer x.unwind(len(x.undo))
	grid := N / n
	cl, arr, err := x.replicated(devices, 2, N, n, 2*grid*grid*grid/devices)
	if err != nil {
		return err
	}
	full := core.Box(N, N, N)
	if err := arr.Fill(bg, full, 1); err != nil {
		return err
	}
	want := float64(full.Size())

	const dead = 1
	cl.Machine(dead).Server().Close()
	hb := cl.Client().StartHeartbeat(rmi.HeartbeatConfig{Interval: 10 * time.Millisecond, Misses: 2})
	x.later(hb.Stop)
	if err := waitUntil(fmt.Sprintf("E15: machine %d declared down", dead), func() bool {
		return cl.Client().MachineDown(dead) != nil
	}); err != nil {
		return err
	}
	// The detector has done its part; a probe round landing inside the
	// measured call would add its pings to the call's message count.
	hb.Stop()

	var rep *core.FailoverReport
	s, err := measure(0, 1, func() (err error) {
		rep, err = arr.Failover(bg, dead)
		return err
	})
	if err != nil {
		return err
	}
	if len(rep.Lost) > 0 {
		return fmt.Errorf("E15: failover lost %d pages", len(rep.Lost))
	}
	if got, err := arr.Sum(bg, full); err != nil || math.Abs(got-want) > 1e-9*want {
		return fmt.Errorf("E15: post-failover sum %v, %v; want %v", got, err, want)
	}
	x.AddRow("failover", fmt.Sprintf("N=%d k=2", N), fmt.Sprintf("%.1f", s.kb), fmt.Sprintf("%.0f", s.msgs),
		usPrec(s.per), fmt.Sprintf("%d pages re-seeded", rep.Reseeded))
	return nil
}
