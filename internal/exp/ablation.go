package exp

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/rmi"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// The A-series are ablations of this implementation's own design choices
// (see the root package doc), not paper claims: they measure what each
// mechanism is worth.

// A1 — ablation of the §4 pipelining depth: Array.Read of a large domain
// with the outstanding-request window swept from 1 (sequential semantics)
// upward.
var a1 = Experiment{
	ID:    "A1",
	Title: "Ablation: pipelining window depth for Array.Read",
	Claim: "design choice: bounded request pipelining recovers the §4 parallelism;" +
		" window=1 degenerates to §2 sequential semantics",
	Columns: []string{"window", "read ms", "speedup vs w=1"},
	run: func(x *run) error {
		cl, err := x.diskCluster(8)
		if err != nil {
			return err
		}
		arr, err := x.array(cl, "roundrobin", 64, 16, 0)
		if err != nil {
			return err
		}
		full := arr.Bounds()
		if err := arr.Fill(bg, full, 1); err != nil {
			return err
		}
		buf := make([]float64, full.Size())
		var base time.Duration
		for _, w := range []int{1, 4, 16} {
			arr.SetWindow(w)
			s, err := measure(0, 1, func() error { return arr.Read(bg, buf, full) })
			if err != nil {
				return err
			}
			if w == 1 {
				base = s.per
			}
			x.AddRow(fmt.Sprintf("%d", w), msPrec(s.per), fmt.Sprintf("%.2fx", float64(base)/float64(s.per)))
		}
		x.Note("expected shape: speedup grows until the window covers all devices (8 here), then flattens")
		return nil
	},
}

// A2 — ablation of the object-as-process decision: calls to a serial
// method on ONE object (mailbox-serialized) vs a concurrent method on the
// same object vs serial methods on K distinct objects, all from K
// concurrent callers with a simulated 100µs method body.
var a2 = Experiment{
	ID:    "A2",
	Title: "Ablation: mailbox serialization vs concurrent dispatch",
	Claim: "design choice: an object is a serial process (its mailbox is the" +
		" consistency mechanism); concurrency comes from more objects or opt-in" +
		" concurrent methods",
	Columns: []string{"configuration", "ops/s", "vs serial-1obj"},
	run: func(x *run) error {
		cl, err := x.cluster(cluster.Config{Machines: 1, Transport: transport.NewInproc(transport.LinkModel{})})
		if err != nil {
			return err
		}
		client := cl.Client()
		const callers, iters = 8, 25 // iters per caller
		const bodyUs = 100           // 100µs simulated body
		// rate is the calls per second of callers concurrent callers, caller
		// c calling method on refs[c % len(refs)].
		rate := func(refs []rmi.Ref, method rmi.Op[int, struct{}]) (float64, error) {
			s, err := measure(0, 1, func() error {
				var wg sync.WaitGroup
				errs := make([]error, callers)
				for c := range errs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < iters && errs[c] == nil; i++ {
							_, errs[c] = method.Call(bg, client, refs[c%len(refs)], bodyUs)
						}
					}()
				}
				wg.Wait()
				return errors.Join(errs...)
			})
			return float64(callers*iters) / s.per.Seconds(), err
		}

		refs := make([]rmi.Ref, callers)
		for i := range refs {
			if refs[i], err = busyClass.New(bg, client, 0, struct{}{}); err != nil {
				return err
			}
		}
		serialOne, err := rate(refs[:1], workSerial)
		if err != nil {
			return err
		}
		concOne, err := rate(refs[:1], workConcurrent)
		if err != nil {
			return err
		}
		serialMany, err := rate(refs, workSerial)
		if err != nil {
			return err
		}
		x.AddRow("serial method, 1 object", fmt.Sprintf("%.0f", serialOne), "1.00x")
		x.AddRow("concurrent method, 1 object", fmt.Sprintf("%.0f", concOne),
			fmt.Sprintf("%.2fx", concOne/serialOne))
		x.AddRow(fmt.Sprintf("serial methods, %d objects", callers), fmt.Sprintf("%.0f", serialMany),
			fmt.Sprintf("%.2fx", serialMany/serialOne))
		x.Note("serial-1obj is bounded by the object's mailbox (one 100µs body at a time); both escapes recover concurrency")
		return nil
	},
}

type busyObj struct{}

// busyBody burns us microseconds of CPU.
func busyBody(_ *busyObj, _ *rmi.Env, us int) (struct{}, error) {
	deadline := time.Now().Add(time.Duration(us) * time.Microsecond)
	for time.Now().Before(deadline) {
	}
	return struct{}{}, nil
}

// busyClass is a class whose methods burn a requested number of
// microseconds, in serial and concurrent variants.
var busyClass = rmi.RegisterClass("exp.Busy", wire.Void, func(env *rmi.Env, _ struct{}) (*busyObj, error) {
	return &busyObj{}, nil
})

var (
	workSerial     = rmi.DeclareOp(busyClass, "workSerial", wire.Int, wire.Void, busyBody)
	workConcurrent = rmi.DeclareConcurrentOp(busyClass, "workConcurrent", wire.Int, wire.Void, busyBody)
)
