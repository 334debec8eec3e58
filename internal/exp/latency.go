package exp

import (
	"fmt"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/collection"
	"oopp/internal/mp"
	"oopp/internal/rmem"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// modeledLink is the network model used by communication-bound
// experiments: LAN-ish latency with gigabit-class bandwidth, scaled so
// full suites run in seconds.
func modeledLink() transport.LinkModel {
	return transport.LinkModel{Latency: 20 * time.Microsecond, Bandwidth: 1e9}
}

// E1RMILatency — §2: "execution of a remote method" is a client-server
// round trip whose protocol the compiler generates; the framework should
// track hand-written message passing. We echo payloads of several sizes
// through (a) an RMI method call and (b) a raw mp send/recv pair, over
// the same modeled link and over real TCP.
func E1RMILatency(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E1",
		Title: "Remote method execution vs hand-written message passing",
		Claim: "§2: method execution through remote pointers costs one client-server" +
			" round trip; the generated protocol is competitive with hand-written messaging",
		Columns: []string{"transport", "payload", "rmi µs/op", "mp µs/op", "rmi/mp", "rmi allocs/op", "mp allocs/op"},
		pinned:  map[string]rule{"transport": label, "payload": label, "rmi allocs/op": ceiling, "mp allocs/op": ceiling},
	}
	iters := cfg.iters(300, 3000)
	payloads := []int{0, 1 << 10, 64 << 10}

	type tp struct {
		name string
		make func() transport.Transport
	}
	for _, tpc := range []tp{
		{"inproc+model", func() transport.Transport { return transport.NewInproc(modeledLink()) }},
		{"tcp", func() transport.Transport { return transport.TCP{} }},
	} {
		// RMI side: two machines, echo object on machine 1.
		cl, err := cluster.New(cluster.Config{Machines: 2, Transport: tpc.make()})
		if err != nil {
			return nil, err
		}
		client := cl.Client()
		ref, err := client.New(bg, 1, classEcho, nil)
		if err != nil {
			cl.Shutdown()
			return nil, err
		}

		// MP side: two ranks over an identical transport.
		world, err := mp.NewWorld(tpc.make(), 2)
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		// Echo server loop on rank 1.
		serverDone := make(chan struct{})
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

		for _, size := range payloads {
			payload := make([]byte, size)

			// The echo closure is hoisted and the response decoders released,
			// matching how a steady-state caller uses the pooled hot path.
			echoArgs := func(e *wire.Encoder) error {
				e.PutBytes(payload)
				return nil
			}
			rmiS, err := measure(10, iters, func() error {
				d, err := client.Call(bg, ref, "echo", echoArgs)
				d.Release()
				return err
			})
			var mpS sample
			if err == nil {
				c0 := world.Comm(0)
				mpS, err = measure(10, iters, func() error {
					if err := c0.Send(1, 1, payload); err != nil {
						return err
					}
					_, err := c0.Recv(1, 1)
					return err
				})
			}
			if err != nil {
				cl.Shutdown()
				world.Close()
				return nil, err
			}

			t.AddRow(tpc.name, fmt.Sprintf("%dB", size), usPrec(rmiS.per), usPrec(mpS.per),
				fmt.Sprintf("%.2f", float64(rmiS.per)/float64(mpS.per)),
				fmt.Sprintf("%.1f", rmiS.allocs), fmt.Sprintf("%.1f", mpS.allocs))
		}
		world.Close()
		<-serverDone
		cl.Shutdown()
	}
	t.Note("expected shape: ratio near 1 — the dispatch layer adds a small constant, not a new cost class")
	return t, nil
}

// E2ElementVsBulk — §2: element accesses on remote memory are correct but
// cost a full round trip each ("data[7] = 3.1415"); bulk transfers
// amortize the trip. Sweep the block size and report per-element cost.
func E2ElementVsBulk(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E2",
		Title: "Element-wise remote access vs bulk transfer",
		Claim: "§2: each element access on remote memory is one sequential round trip;" +
			" bulk range operations amortize it by orders of magnitude",
		Columns: []string{"block (f64s)", "ops", "µs/element", "MB/s", "allocs/op"},
		pinned:  map[string]rule{"block (f64s)": label, "allocs/op": ceiling},
	}
	cl, err := cluster.New(cluster.Config{Machines: 2, Transport: transport.NewInproc(modeledLink())})
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()
	const n = 64 << 10
	arr, err := rmem.NewFloat64Array(bg, cl.Client(), 1, n)
	if err != nil {
		return nil, err
	}
	defer arr.Free(bg)

	blocks := []int{1, 16, 256, 4096, 65536}
	for _, bs := range blocks {
		// Read the same volume-ish per config, bounded to keep runtime sane.
		ops := cfg.iters(100, 400)
		if bs >= 4096 {
			ops = cfg.iters(20, 100)
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
			return nil, err
		}
		perElem := float64(s.per.Nanoseconds()) / 1e3 / float64(bs)
		mbps := float64(bs*8) / s.per.Seconds() / 1e6
		t.AddRow(fmt.Sprintf("%d", bs), fmt.Sprintf("%d", ops),
			fmt.Sprintf("%.3f", perElem), fmt.Sprintf("%.1f", mbps),
			fmt.Sprintf("%.1f", s.allocs))
	}
	t.Note("expected shape: flat ~RTT cost per element at block=1, dropping toward the link bandwidth limit as blocks grow")
	return t, nil
}

// E9Barrier — §4: "an explicit compiler-supported barrier method for
// arrays of objects may be useful... fft->barrier()". Measure barrier
// cost as the group grows.
func E9Barrier(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E9",
		Title: "Barrier cost vs process group size",
		Claim: "§4: process groups synchronize with a barrier on the object array;" +
			" cost grows with group size (star topology: one ping per member)",
		Columns: []string{"group size", "µs/barrier", "µs/member"},
	}
	const machines = 8
	cl, err := cluster.New(cluster.Config{Machines: machines, Transport: transport.NewInproc(modeledLink())})
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()
	client := cl.Client()
	iters := cfg.iters(50, 400)

	for _, size := range []int{1, 2, 4, 8, 16, 32, 64} {
		g, err := collection.SpawnNamed[any](bg, client, collection.OnMachines(machineList(size, machines)...), classEcho, nil)
		if err != nil {
			return nil, err
		}
		s, err := measure(5, iters, func() error { return g.Barrier(bg) })
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", size), usPrec(s.per),
			fmt.Sprintf("%.2f", float64(s.per.Nanoseconds())/1e3/float64(size)))
		if err := g.Destroy(bg); err != nil {
			return nil, err
		}
	}
	t.Note("pings are issued in parallel; µs/member falling means member pings overlap on the wire")
	return t, nil
}
