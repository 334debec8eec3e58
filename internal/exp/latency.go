package exp

import (
	"fmt"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/collection"
	"oopp/internal/mp"
	"oopp/internal/rmem"
	"oopp/internal/transport"
)

// modeledLink is the network model used by communication-bound
// experiments: LAN-ish latency with gigabit-class bandwidth, scaled so
// full suites run in seconds.
func modeledLink() transport.LinkModel {
	return transport.LinkModel{Latency: 20 * time.Microsecond, Bandwidth: 1e9}
}

// modeled brings up a cluster of machines on the modeled link.
func (x *run) modeled(machines int) (*cluster.Cluster, error) {
	return x.cluster(cluster.Config{Machines: machines, Transport: transport.NewInproc(modeledLink())})
}

// E1 — §2: "execution of a remote method" is a client-server round trip
// whose protocol the compiler generates; the framework should track
// hand-written message passing. We echo payloads of several sizes through
// (a) an RMI method call and (b) a raw mp send/recv pair, over the same
// modeled link and over real TCP.
var e1 = Experiment{
	ID:    "E1",
	Title: "Remote method execution vs hand-written message passing",
	Claim: "§2: method execution through remote pointers costs one client-server" +
		" round trip; the generated protocol is competitive with hand-written messaging",
	Columns: []string{"transport", "payload", "rmi µs/op", "mp µs/op", "rmi/mp", "rmi allocs/op", "mp allocs/op"},
	pinned:  map[string]rule{"transport": label, "payload": label, "rmi allocs/op": ceiling, "mp allocs/op": ceiling},
	run: func(x *run) error {
		const iters = 300
		for _, tpc := range []struct {
			name string
			make func() transport.Transport
		}{
			{"inproc+model", func() transport.Transport { return transport.NewInproc(modeledLink()) }},
			{"tcp", func() transport.Transport { return transport.TCP{} }},
		} {
			top := len(x.undo)
			// RMI side: two machines, echo object on machine 1.
			cl, err := x.cluster(cluster.Config{Machines: 2, Transport: tpc.make()})
			if err != nil {
				return err
			}
			client := cl.Client()
			ref, err := echoClass.New(bg, client, 1, struct{}{})
			if err != nil {
				return err
			}

			// MP side: two ranks over an identical transport, and an echo
			// server loop on rank 1.
			world, err := mp.NewWorld(tpc.make(), 2)
			if err != nil {
				return err
			}
			serverDone := make(chan struct{})
			x.later(func() { world.Close(); <-serverDone })
			go func() {
				defer close(serverDone)
				c := world.Comm(1)
				for {
					b, err := c.Recv(0, 1)
					if err != nil {
						return
					}
					if err := c.Send(0, 1, b); err != nil {
						return
					}
				}
			}()

			for _, size := range []int{0, 1 << 10, 64 << 10} {
				payload := make([]byte, size)
				rmiS, err := measure(10, iters, echo(bg, client, ref, payload))
				if err != nil {
					return err
				}
				c0 := world.Comm(0)
				mpS, err := measure(10, iters, func() error {
					if err := c0.Send(1, 1, payload); err != nil {
						return err
					}
					_, err := c0.Recv(1, 1)
					return err
				})
				if err != nil {
					return err
				}
				x.AddRow(tpc.name, fmt.Sprintf("%dB", size), usPrec(rmiS.per), usPrec(mpS.per),
					fmt.Sprintf("%.2f", float64(rmiS.per)/float64(mpS.per)),
					fmt.Sprintf("%.1f", rmiS.allocs), fmt.Sprintf("%.1f", mpS.allocs))
			}
			x.unwind(top)
		}
		x.Note("expected shape: ratio near 1 — the dispatch layer adds a small constant, not a new cost class")
		return nil
	},
}

// E2 — §2: element accesses on remote memory are correct but cost a full
// round trip each ("data[7] = 3.1415"); bulk transfers amortize the trip.
// Sweep the block size and report per-element cost.
var e2 = Experiment{
	ID:    "E2",
	Title: "Element-wise remote access vs bulk transfer",
	Claim: "§2: each element access on remote memory is one sequential round trip;" +
		" bulk range operations amortize it by orders of magnitude",
	Columns: []string{"block (f64s)", "ops", "µs/element", "MB/s", "allocs/op"},
	pinned:  map[string]rule{"block (f64s)": label, "allocs/op": ceiling},
	run: func(x *run) error {
		cl, err := x.modeled(2)
		if err != nil {
			return err
		}
		const n = 64 << 10
		arr, err := rmem.NewFloat64Array(bg, cl.Client(), 1, n)
		if err != nil {
			return err
		}
		x.later(func() { arr.Free(bg) })

		for _, bs := range []int{1, 16, 256, 4096, 65536} {
			// Read the same volume-ish per config, bounded to keep runtime sane.
			ops := 100
			if bs >= 4096 {
				ops = 20
			}
			// Bulk reads land in a reused buffer (GetRangeInto): the only copy
			// is wire -> dst, and the steady state allocates nothing.
			dst := make([]float64, bs)
			at := 0 // element offset of the next read
			s, err := measure(0, ops, func() error {
				off := at % (n - bs + 1)
				at += bs
				if bs == 1 {
					_, err := arr.Get(bg, off)
					return err
				}
				return arr.GetRangeInto(bg, off, dst)
			})
			if err != nil {
				return err
			}
			perElem := float64(s.per.Nanoseconds()) / 1e3 / float64(bs)
			mbps := float64(bs*8) / s.per.Seconds() / 1e6
			x.AddRow(fmt.Sprintf("%d", bs), fmt.Sprintf("%d", ops),
				fmt.Sprintf("%.3f", perElem), fmt.Sprintf("%.1f", mbps),
				fmt.Sprintf("%.1f", s.allocs))
		}
		x.Note("expected shape: flat ~RTT cost per element at block=1, dropping toward the link bandwidth limit as blocks grow")
		return nil
	},
}

// E9 — §4: "an explicit compiler-supported barrier method for arrays of
// objects may be useful... fft->barrier()". Measure barrier cost as the
// group grows.
var e9 = Experiment{
	ID:    "E9",
	Title: "Barrier cost vs process group size",
	Claim: "§4: process groups synchronize with a barrier on the object array;" +
		" cost grows with group size (star topology: one ping per member)",
	Columns: []string{"group size", "µs/barrier", "µs/member"},
	run: func(x *run) error {
		const machines = 8
		cl, err := x.modeled(machines)
		if err != nil {
			return err
		}
		client := cl.Client()

		for _, size := range []int{1, 2, 4, 8, 16, 32, 64} {
			g, err := collection.SpawnClass(bg, client, collection.OnMachines(machineList(size, machines)...), echoClass, nil)
			if err != nil {
				return err
			}
			s, err := measure(5, 50, func() error { return g.Barrier(bg) })
			if err != nil {
				return err
			}
			x.AddRow(fmt.Sprintf("%d", size), usPrec(s.per),
				fmt.Sprintf("%.2f", float64(s.per.Nanoseconds())/1e3/float64(size)))
			if err := g.Destroy(bg); err != nil {
				return err
			}
		}
		x.Note("pings are issued in parallel; µs/member falling means member pings overlap on the wire")
		return nil
	},
}
