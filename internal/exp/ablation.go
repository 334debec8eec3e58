package exp

import (
	"fmt"
	"sync"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/disk"
	"oopp/internal/rmi"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// The A-series are ablations of this implementation's own design choices
// (see the root package doc), not paper claims: they measure what each
// mechanism is worth.

// A1PipelineWindow — ablation of the §4 pipelining depth: Array.Read of a
// large domain with the outstanding-request window swept from 1
// (sequential semantics) upward.
func A1PipelineWindow(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "A1",
		Title: "Ablation: pipelining window depth for Array.Read",
		Claim: "design choice: bounded request pipelining recovers the §4 parallelism;" +
			" window=1 degenerates to §2 sequential semantics",
		Columns: []string{"window", "read ms", "speedup vs w=1"},
	}
	const devices = 8
	const N, n = 64, 16
	cl, err := cluster.New(cluster.Config{
		Machines:        devices,
		DisksPerMachine: 1,
		DiskSize:        64 << 20,
		DiskModel:       disk.Model{Seek: 1 * time.Millisecond, ReadBandwidth: 1e9, WriteBandwidth: 1e9},
	})
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()

	arr, storage, err := buildE7Array(cl, "roundrobin", devices, N, n)
	if err != nil {
		return nil, err
	}
	defer storage.Close(bg)
	full := arr.Bounds()
	if err := arr.Fill(bg, full, 1); err != nil {
		return nil, err
	}

	buf := make([]float64, full.Size())
	var base time.Duration
	windows := []int{1, 2, 4, 8, 16, 32}
	if cfg.Quick {
		windows = []int{1, 4, 16}
	}
	for _, w := range windows {
		arr.SetWindow(w)
		start := time.Now()
		if err := arr.Read(bg, buf, full); err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		if w == windows[0] {
			base = elapsed
		}
		t.AddRow(fmt.Sprintf("%d", w), msPrec(elapsed),
			fmt.Sprintf("%.2fx", float64(base)/float64(elapsed)))
	}
	t.Note("expected shape: speedup grows until the window covers all devices (8 here), then flattens")
	return t, nil
}

// A2DispatchModes — ablation of the object-as-process decision: calls to
// a serial method on ONE object (mailbox-serialized) vs a concurrent
// method on the same object vs serial methods on K distinct objects, all
// from K concurrent callers with a simulated 100µs method body.
func A2DispatchModes(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "A2",
		Title: "Ablation: mailbox serialization vs concurrent dispatch",
		Claim: "design choice: an object is a serial process (its mailbox is the" +
			" consistency mechanism); concurrency comes from more objects or opt-in" +
			" concurrent methods",
		Columns: []string{"configuration", "ops/s", "vs serial-1obj"},
	}
	cl, err := cluster.New(cluster.Config{Machines: 1, Transport: transport.NewInproc(transport.LinkModel{})})
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()
	client := cl.Client()

	const callers = 8
	iters := cfg.iters(25, 100) // per caller

	run := func(refs []rmi.Ref, method string) (float64, error) {
		var wg sync.WaitGroup
		errCh := make(chan error, callers)
		start := time.Now()
		for c := 0; c < callers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				ref := refs[c%len(refs)]
				args := func(e *wire.Encoder) error {
					e.PutInt(100) // 100µs simulated body
					return nil
				}
				for i := 0; i < iters; i++ {
					d, err := client.Call(bg, ref, method, args)
					d.Release()
					if err != nil {
						errCh <- err
						return
					}
				}
			}(c)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			return 0, err
		}
		elapsed := time.Since(start)
		return float64(callers*iters) / elapsed.Seconds(), nil
	}

	// One object, serial method.
	one, err := client.New(bg, 0, ClassBusy, nil)
	if err != nil {
		return nil, err
	}
	serialOne, err := run([]rmi.Ref{one}, "workSerial")
	if err != nil {
		return nil, err
	}
	// One object, concurrent method.
	concOne, err := run([]rmi.Ref{one}, "workConcurrent")
	if err != nil {
		return nil, err
	}
	// K objects, serial methods.
	refs := make([]rmi.Ref, callers)
	for i := range refs {
		refs[i], err = client.New(bg, 0, ClassBusy, nil)
		if err != nil {
			return nil, err
		}
	}
	serialMany, err := run(refs, "workSerial")
	if err != nil {
		return nil, err
	}

	t.AddRow("serial method, 1 object", fmt.Sprintf("%.0f", serialOne), "1.00x")
	t.AddRow("concurrent method, 1 object", fmt.Sprintf("%.0f", concOne),
		fmt.Sprintf("%.2fx", concOne/serialOne))
	t.AddRow(fmt.Sprintf("serial methods, %d objects", callers), fmt.Sprintf("%.0f", serialMany),
		fmt.Sprintf("%.2fx", serialMany/serialOne))
	t.Note("serial-1obj is bounded by the object's mailbox (one 100µs body at a time); both escapes recover concurrency")
	return t, nil
}

// ClassBusy is a class whose methods burn a requested number of
// microseconds, in serial and concurrent variants.
const ClassBusy = "exp.Busy"

type busyObj struct{}

func busyBody(args *wire.Decoder) error {
	us := args.Int()
	if err := args.Err(); err != nil {
		return err
	}
	deadline := time.Now().Add(time.Duration(us) * time.Microsecond)
	for time.Now().Before(deadline) {
	}
	return nil
}

func init() {
	rmi.RegisterClass(ClassBusy, func(env *rmi.Env, args *wire.Decoder) (*busyObj, error) {
		return &busyObj{}, nil
	}).
		Method("workSerial", func(obj *busyObj, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			return busyBody(args)
		}).
		ConcurrentMethod("workConcurrent", func(obj *busyObj, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			return busyBody(args)
		})

	Experiments = append(Experiments,
		Experiment{"A1", "Ablation: pipelining window depth", A1PipelineWindow},
		Experiment{"A2", "Ablation: mailbox serialization vs concurrent dispatch", A2DispatchModes},
	)
}

// Reference the core package (buildE7Array returns core types) so the
// ablation file reads standalone.
var _ = core.PageMapNames
