package exp

import (
	"fmt"
	"math"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/transport"
)

// maxWriteOverhead is the acceptance bound on replication's write cost:
// k=2 may move at most this multiple of the k=1 bytes per full-array
// write. The fan-out itself doubles the payload; the budget above 2.0
// covers per-replica framing. The experiment fails if the measured
// ratio exceeds it, so the bound is enforced on every run, not just
// eyeballed in the table.
const maxWriteOverhead = 2.2

// E15Replication — replicated pages: the write path pays for k-way
// durability (every page write fans out to all replicas, primary-ack),
// the read path does not (any one live replica serves), and failover —
// promoting survivors and re-seeding lost replicas device-to-device —
// completes in time proportional to the data held by the dead machine.
func E15Replication(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E15",
		Title: "Replicated pages: write fan-out cost and failover recovery",
		Claim: "k-way page replication charges writes k fan-out copies (bounded by " +
			fmt.Sprintf("%.1fx", maxWriteOverhead) + " for k=2), leaves reads at one-replica cost," +
			" and recovers from a machine kill by re-seeding the dead machine's pages onto survivors",
		Columns: []string{"op", "config", "KB moved/op", "msgs/op", "µs/op", "vs k=1"},
		pinned:  map[string]rule{"op": label, "config": label, "KB moved/op": kbytes, "msgs/op": exact},
	}
	const devices = 4
	const N, n = 16, 4

	row := func(op, config string, s sample, baseKB float64) {
		vs := "—"
		if baseKB > 0 {
			vs = fmt.Sprintf("%.2fx", s.kb/baseKB)
		}
		t.AddRow(op, config, fmt.Sprintf("%.1f", s.kb), fmt.Sprintf("%.1f", s.msgs), usPrec(s.per), vs)
	}

	iters := cfg.iters(3, 8)
	full := core.Box(N, N, N)
	buf := make([]float64, full.Size())
	for i := range buf {
		buf[i] = float64(i%977) / 3
	}
	out := make([]float64, full.Size())

	// Steady-state cost per k: full-array write and full-array read.
	var baseWriteKB, baseReadKB, k2WriteKB float64
	for _, k := range []int{1, 2} {
		_, arr, cleanup, err := replicatedArray(devices, k, N, n, 0)
		if err != nil {
			return nil, err
		}
		cfgLabel := fmt.Sprintf("k=%d", k)

		w, err := measure(0, iters, func() error { return arr.Write(bg, buf, full) })
		if err != nil {
			cleanup()
			return nil, err
		}
		row("write", cfgLabel, w, baseWriteKB)
		if k == 1 {
			baseWriteKB = w.kb
		} else {
			k2WriteKB = w.kb
		}

		r, err := measure(0, iters, func() error { return arr.Read(bg, out, full) })
		if err != nil {
			cleanup()
			return nil, err
		}
		row("read", cfgLabel, r, baseReadKB)
		if k == 1 {
			baseReadKB = r.kb
		}
		for i, v := range out {
			if v != buf[i] {
				cleanup()
				return nil, fmt.Errorf("E15: k=%d read back %v at %d, want %v", k, v, i, buf[i])
			}
		}
		cleanup()
	}
	if k2WriteKB > maxWriteOverhead*baseWriteKB {
		return nil, fmt.Errorf("E15: k=2 write moves %.1f KB/op, above the %.1fx bound over k=1's %.1f KB/op",
			k2WriteKB, maxWriteOverhead, baseWriteKB)
	}

	// Failover: kill one machine, let the detector declare it, then time
	// the promotion + re-seed. Recovery traffic and time scale with the
	// pages the dead machine held, so two array sizes show the slope.
	for _, fn := range []int{8, 16} {
		s, reseeded, err := failoverOnce(devices, fn, n)
		if err != nil {
			return nil, err
		}
		t.AddRow("failover", fmt.Sprintf("N=%d k=2", fn),
			fmt.Sprintf("%.1f", s.kb), fmt.Sprintf("%.0f", s.msgs), usPrec(s.per),
			fmt.Sprintf("%d pages re-seeded", reseeded))
	}

	t.Note("write rows: every touched page fans out to all k replicas (primary-ack); the k=2 row is gated at %.1fx the k=1 bytes", maxWriteOverhead)
	t.Note("read rows: one live replica serves, so read traffic does not scale with k")
	t.Note("failover rows: µs/op is the Failover call alone (detection latency is the heartbeat's interval×misses, not measured here); re-seeding copies each lost page device-to-device once")
	return t, nil
}

// replicatedArray builds a k-way replicated N³ array over one device per
// machine, with sparePages extra slots per device for failover re-seeds.
func replicatedArray(devices, k, N, n, sparePages int) (*cluster.Cluster, *core.Array, func(), error) {
	cl, err := cluster.New(cluster.Config{Machines: devices, Transport: transport.NewInproc(modeledLink())})
	if err != nil {
		return nil, nil, nil, err
	}
	fail := func(err error) (*cluster.Cluster, *core.Array, func(), error) {
		cl.Shutdown()
		return nil, nil, nil, err
	}
	grid := N / n
	base, err := core.NewRoundRobinMap(grid, grid, grid, devices)
	if err != nil {
		return fail(err)
	}
	pm, err := core.NewReplicatedMap(base, k)
	if err != nil {
		return fail(err)
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), machineList(devices, devices), "e15",
		pm.PagesPerDevice()+sparePages, n, n, n, pagedev.DiskPrivate)
	if err != nil {
		return fail(err)
	}
	arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
	if err != nil {
		storage.Close(bg)
		return fail(err)
	}
	return cl, arr, func() {
		storage.Close(bg)
		cl.Shutdown()
	}, nil
}

// failoverOnce builds a 2-way replicated N³ array, kills machine 1, and
// measures the Failover call once the detector has declared the machine
// down. It verifies zero data loss (the post-failover sum matches) and
// returns the call's cost and the re-seeded page count.
func failoverOnce(devices, N, n int) (s sample, reseeded int, err error) {
	grid := N / n
	basePPD := 2 * (grid*grid*grid + devices - 1) / devices // k × ceil(pages/devices)
	cl, arr, cleanup, err := replicatedArray(devices, 2, N, n, basePPD)
	if err != nil {
		return s, 0, err
	}
	defer cleanup()

	full := core.Box(N, N, N)
	if err := arr.Fill(bg, full, 1); err != nil {
		return s, 0, err
	}
	want := float64(full.Size())

	const dead = 1
	cl.Machine(dead).Server().Close()
	hb := cl.Client().StartHeartbeat(rmi.HeartbeatConfig{Interval: 10 * time.Millisecond, Misses: 2})
	defer hb.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for cl.Client().MachineDown(dead) == nil {
		if time.Now().After(deadline) {
			return s, 0, fmt.Errorf("E15: machine %d never declared down", dead)
		}
		time.Sleep(time.Millisecond)
	}
	// The detector has done its part; a probe round landing inside the
	// measured call would add its pings to the call's message count.
	hb.Stop()

	var rep *core.FailoverReport
	s, err = measure(0, 1, func() (err error) {
		rep, err = arr.Failover(bg, dead)
		return err
	})
	if err != nil {
		return s, 0, err
	}
	if len(rep.Lost) > 0 {
		return s, 0, fmt.Errorf("E15: failover lost %d pages", len(rep.Lost))
	}
	got, err := arr.Sum(bg, full)
	if err != nil {
		return s, 0, err
	}
	if math.Abs(got-want) > 1e-9*want {
		return s, 0, fmt.Errorf("E15: post-failover sum %v, want %v", got, want)
	}
	return s, rep.Reseeded, nil
}
