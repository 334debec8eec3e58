package exp

import (
	"fmt"
	"runtime"

	"oopp/internal/cluster"
	"oopp/internal/fft"
	"oopp/internal/mp"
	"oopp/internal/pfft"
	"oopp/internal/transport"
)

// localFFT times one forward 3D FFT of a copy of x on one core.
func localFFT(x []complex128, n int) (sample, error) {
	local := append([]complex128(nil), x...)
	return measure(0, 1, func() error { return fft.FFT3D(local, n, n, n, -1) })
}

// E5 — §4: "a collection of processes for a joint computation of a
// Fourier transform". Scale the worker count on a fixed 3D array and
// report wall time and speedup over one core running the local FFT.
var e5 = Experiment{
	ID:    "E5",
	Title: "Parallel FFT scaling with worker processes",
	Claim: "§4: a group of FFT processes jointly computes the transform, each sending" +
		" its transpose blocks a few planes at a time by remote method execution while" +
		" it transforms the next planes. A worker shares its planes among its machine's" +
		" processors, so on one host time is below one core's from the first worker on" +
		" and more workers add only the exchange",
	Columns: []string{"workers", "transform ms", "speedup"},
	run: func(x *run) error {
		const n = 64
		data := make([]complex128, n*n*n)
		fillRandom(data, 1)
		local, err := localFFT(data, n)
		if err != nil {
			return err
		}
		x.Note("local single-core 3D FFT (%d^3): %s ms — a worker's two phases with no exchange between them: both axes of a plane while it is in cache, then the first axis, whose rows a tile reads and writes once each", n, msPrec(local.per))
		x.Note("speedup is against that one core; this host has %d hardware threads (GOMAXPROCS) and every worker's machine is this host, so one worker already uses them all", runtime.GOMAXPROCS(0))

		for _, p := range []int{1, 2, 4, 8} {
			top := len(x.undo)
			cl, err := x.cluster(cluster.Config{Machines: p})
			if err != nil {
				return err
			}
			f, err := pfft.New(bg, cl.Client(), machineList(p, p), n, n, n)
			if err != nil {
				return err
			}
			x.later(func() { f.Close(bg) })
			if err := f.Load(bg, data); err != nil {
				return err
			}
			// Forward/inverse pairs keep the data bounded; a transform's
			// time is half a pair's, after one pair of warm-up.
			pair, err := measure(1, 2, func() error {
				if err := f.Transform(bg, -1); err != nil {
					return err
				}
				return f.Transform(bg, +1)
			})
			if err != nil {
				return err
			}
			per := pair.per / 2
			x.AddRow(fmt.Sprintf("%d", p), msPrec(per), fmt.Sprintf("%.2fx", float64(local.per)/float64(per)))
			x.unwind(top)
		}
		x.Note("expected shape: above 1x at one worker, at most the host's processors, then flat or falling as each further worker adds transpose traffic and no processor; on machines of their own the workers' processors would add up")
		return nil
	},
}

// E6 — §1/§6: the OO-process framework is positioned against MPI. Run the
// identical FFT (same decomposition, same kernels) through remote method
// execution and through the hand-written message-passing library.
var e6 = Experiment{
	ID:    "E6",
	Title: "OO-process FFT vs message-passing FFT",
	Claim: "§1/§6: the object-oriented framework expresses the same parallel" +
		" computation as message passing, with a modest constant overhead",
	Columns: []string{"implementation", "transform ms", "vs mp"},
	run: func(x *run) error {
		const n = 32
		p := min(max(runtime.GOMAXPROCS(0), 2), 4)
		if n%p != 0 {
			p = 2
		}
		data := make([]complex128, n*n*n)
		fillRandom(data, 2)
		local, err := localFFT(data, n)
		if err != nil {
			return err
		}

		// MP baseline, one warm-up first.
		world, err := mp.NewWorld(transport.NewInproc(transport.LinkModel{}), p)
		if err != nil {
			return err
		}
		x.later(world.Close)
		y := make([]complex128, len(data))
		mpS, err := measure(1, 2, func() error {
			copy(y, data)
			return pfft.MPTransform3D(world, y, n, n, n, -1)
		})
		if err != nil {
			return err
		}

		// RMI (OO-process) implementation, end-to-end like the mp side:
		// scatter + transform + gather.
		cl, err := x.cluster(cluster.Config{Machines: p})
		if err != nil {
			return err
		}
		f, err := pfft.New(bg, cl.Client(), machineList(p, p), n, n, n)
		if err != nil {
			return err
		}
		x.later(func() { f.Close(bg) })
		z := make([]complex128, len(data))
		rmiS, err := measure(1, 2, func() error {
			if err := f.Load(bg, data); err != nil {
				return err
			}
			if err := f.Transform(bg, -1); err != nil {
				return err
			}
			return f.Gather(bg, z)
		})
		if err != nil {
			return err
		}

		x.AddRow("local 1-core", msPrec(local.per), "-")
		x.AddRow(fmt.Sprintf("mp alltoall (P=%d)", p), msPrec(mpS.per), "1.00")
		x.AddRow(fmt.Sprintf("oo-process rmi (P=%d)", p), msPrec(rmiS.per),
			fmt.Sprintf("%.2f", float64(rmiS.per)/float64(mpS.per)))
		x.Note("both rows time scatter + transform + gather with the same decomposition and kernels; the difference is purely the communication machinery")
		return nil
	},
}

// E11 — §4: "The following deep copy implementation of SetGroup, which
// copies the entire remote array of remote pointers to a local array of
// remote pointers, is preferable." Compare group setup cost and message
// counts for the deep-copy SetGroup vs the remote-dereference (shallow)
// variant. The run fails unless shallow costs more messages than deep at
// every group size, by a ratio that never shrinks.
var e11 = Experiment{
	ID:    "E11",
	Title: "Deep copy vs remote dereference in SetGroup",
	Claim: "§4: deep-copying the remote pointer array into each member beats leaving" +
		" a remote pointer to the array, which costs a round trip per member access",
	Columns: []string{"group", "deep ms", "deep msgs", "shallow ms", "shallow msgs", "msg ratio"},
	pinned:  map[string]rule{"group": label, "deep msgs": exact, "shallow msgs": exact},
	run: func(x *run) error {
		const machines = 8
		cl, err := x.modeled(machines)
		if err != nil {
			return err
		}
		// setUp times one group setup by mk and tears the group down.
		setUp := func(mk func() (*pfft.PFFT, error)) (sample, error) {
			var f *pfft.PFFT
			s, err := measure(0, 1, func() (err error) { f, err = mk(); return err })
			if err != nil {
				return s, err
			}
			return s, f.Close(bg)
		}
		var prev float64
		for _, p := range []int{4, 8, 16} {
			// Worker dims: tiny slabs (p×p×1) — we only measure group setup.
			deep, err := setUp(func() (*pfft.PFFT, error) {
				return pfft.New(bg, cl.Client(), machineList(p, machines), p, p, 1)
			})
			if err != nil {
				return err
			}
			shallow, err := setUp(func() (*pfft.PFFT, error) {
				return pfft.NewShallow(bg, cl.Client(), machineList(p, machines), p, p, 1)
			})
			if err != nil {
				return err
			}
			ratio := shallow.msgs / deep.msgs
			if shallow.msgs <= deep.msgs || ratio < prev {
				return fmt.Errorf("E11: group %d: shallow %.0f msgs vs deep %.0f, ratio %.1f after %.1f — O(N²) vs O(N) not visible",
					p, shallow.msgs, deep.msgs, ratio, prev)
			}
			prev = ratio
			x.AddRow(fmt.Sprintf("%d", p), msPrec(deep.per), fmt.Sprintf("%.0f", deep.msgs),
				msPrec(shallow.per), fmt.Sprintf("%.0f", shallow.msgs), fmt.Sprintf("%.1fx", ratio))
		}
		x.Note("deep copy sends the member table once per worker (O(N) messages); shallow costs O(N) round trips per worker (O(N²) total)")
		return nil
	},
}
