package exp

import (
	"fmt"
	"runtime"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/fft"
	"oopp/internal/mp"
	"oopp/internal/pfft"
	"oopp/internal/transport"
)

// E5ParallelFFT — §4: "a collection of processes for a joint computation
// of a Fourier transform". Scale the worker count on a fixed 3D array
// and report wall time and speedup over one core running the local FFT.
func E5ParallelFFT(cfg Config) (*Table, error) {
	n := 96 // not a power of two: Bluestein kernels raise compute per point
	if cfg.Quick {
		n = 64
	}
	t := &Table{
		ID:    "E5",
		Title: "Parallel FFT scaling with worker processes",
		Claim: "§4: a group of FFT processes jointly computes the transform, each sending" +
			" its transpose blocks a few planes at a time by remote method execution while" +
			" it transforms the next planes. A worker shares its planes among its machine's" +
			" processors, so on one host time is below one core's from the first worker on" +
			" and more workers add only the exchange",
		Columns: []string{"workers", "transform ms", "speedup"},
	}
	x := make([]complex128, n*n*n)
	fillRandom(x, 1)

	// Local single-core reference.
	local := append([]complex128(nil), x...)
	start := time.Now()
	if err := fft.FFT3D(local, n, n, n, -1); err != nil {
		return nil, err
	}
	localTime := time.Since(start)
	t.Note("local single-core 3D FFT (%d^3): %s ms — a worker's two phases with no exchange between them: both axes of a plane while it is in cache, then the first axis, whose rows a tile reads and writes once each", n, msPrec(localTime))
	t.Note("speedup is against that one core; this host has %d hardware threads (GOMAXPROCS) and every worker's machine is this host, so one worker already uses them all", runtime.GOMAXPROCS(0))

	reps := cfg.iters(2, 4)
	for _, p := range []int{1, 2, 4, 8} {
		cl, err := cluster.NewLocal(p, 0)
		if err != nil {
			return nil, err
		}
		f, err := pfft.New(bg, cl.Client(), machineList(p, p), n, n, n)
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		if err := f.Load(bg, x); err != nil {
			cl.Shutdown()
			return nil, err
		}
		// Warm-up + measurement (forward/inverse pairs keep data bounded).
		if err := f.Transform(bg, -1); err != nil {
			cl.Shutdown()
			return nil, err
		}
		if err := f.Transform(bg, +1); err != nil {
			cl.Shutdown()
			return nil, err
		}
		var total time.Duration
		for r := 0; r < reps; r++ {
			start := time.Now()
			if err := f.Transform(bg, -1); err != nil {
				cl.Shutdown()
				return nil, err
			}
			total += time.Since(start)
			if err := f.Transform(bg, +1); err != nil {
				cl.Shutdown()
				return nil, err
			}
		}
		per := total / time.Duration(reps)
		t.AddRow(fmt.Sprintf("%d", p), msPrec(per), fmt.Sprintf("%.2fx", float64(localTime)/float64(per)))
		f.Close(bg)
		cl.Shutdown()
	}
	t.Note("expected shape: above 1x at one worker, at most the host's processors, then flat or falling as each further worker adds transpose traffic and no processor; on machines of their own the workers' processors would add up")
	return t, nil
}

// E6FFTvsMP — §1/§6: the OO-process framework is positioned against MPI.
// Run the identical FFT (same decomposition, same kernels) through remote
// method execution and through the hand-written message-passing library.
func E6FFTvsMP(cfg Config) (*Table, error) {
	n := 64
	if cfg.Quick {
		n = 32
	}
	p := runtime.GOMAXPROCS(0)
	if p > 4 {
		p = 4
	}
	if p < 2 {
		p = 2
	}
	if n%p != 0 {
		p = 2
	}
	t := &Table{
		ID:    "E6",
		Title: "OO-process FFT vs message-passing FFT",
		Claim: "§1/§6: the object-oriented framework expresses the same parallel" +
			" computation as message passing, with a modest constant overhead",
		Columns: []string{"implementation", "transform ms", "vs mp"},
	}
	x := make([]complex128, n*n*n)
	fillRandom(x, 2)
	reps := cfg.iters(2, 4)

	// Local reference.
	local := append([]complex128(nil), x...)
	start := time.Now()
	if err := fft.FFT3D(local, n, n, n, -1); err != nil {
		return nil, err
	}
	localTime := time.Since(start)

	// MP baseline.
	world, err := mp.NewWorld(transport.NewInproc(transport.LinkModel{}), p)
	if err != nil {
		return nil, err
	}
	y := append([]complex128(nil), x...)
	if err := pfft.MPTransform3D(world, y, n, n, n, -1); err != nil { // warm-up
		world.Close()
		return nil, err
	}
	var mpTotal time.Duration
	for r := 0; r < reps; r++ {
		copy(y, x)
		start := time.Now()
		if err := pfft.MPTransform3D(world, y, n, n, n, -1); err != nil {
			world.Close()
			return nil, err
		}
		mpTotal += time.Since(start)
	}
	world.Close()
	mpTime := mpTotal / time.Duration(reps)

	// RMI (OO-process) implementation.
	cl, err := cluster.NewLocal(p, 0)
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()
	f, err := pfft.New(bg, cl.Client(), machineList(p, p), n, n, n)
	if err != nil {
		return nil, err
	}
	defer f.Close(bg)
	// End-to-end like the mp side: scatter + transform + gather.
	z := make([]complex128, len(x))
	runRMI := func() error {
		if err := f.Load(bg, x); err != nil {
			return err
		}
		if err := f.Transform(bg, -1); err != nil {
			return err
		}
		return f.Gather(bg, z)
	}
	if err := runRMI(); err != nil { // warm-up
		return nil, err
	}
	var rmiTotal time.Duration
	for r := 0; r < reps; r++ {
		start := time.Now()
		if err := runRMI(); err != nil {
			return nil, err
		}
		rmiTotal += time.Since(start)
	}
	rmiTime := rmiTotal / time.Duration(reps)

	t.AddRow("local 1-core", msPrec(localTime), "-")
	t.AddRow(fmt.Sprintf("mp alltoall (P=%d)", p), msPrec(mpTime), "1.00")
	t.AddRow(fmt.Sprintf("oo-process rmi (P=%d)", p), msPrec(rmiTime),
		fmt.Sprintf("%.2f", float64(rmiTime)/float64(mpTime)))
	t.Note("both rows time scatter + transform + gather with the same decomposition and kernels; the difference is purely the communication machinery")
	return t, nil
}

// E11DeepCopy — §4: "The following deep copy implementation of SetGroup,
// which copies the entire remote array of remote pointers to a local
// array of remote pointers, is preferable." Compare group setup cost and
// message counts for the deep-copy SetGroup vs the remote-dereference
// (shallow) variant.
func E11DeepCopy(cfg Config) (*Table, error) {
	t := &Table{
		ID:    "E11",
		Title: "Deep copy vs remote dereference in SetGroup",
		Claim: "§4: deep-copying the remote pointer array into each member beats leaving" +
			" a remote pointer to the array, which costs a round trip per member access",
		Columns: []string{"group", "deep ms", "deep msgs", "shallow ms", "shallow msgs", "msg ratio"},
		pinned:  map[string]rule{"group": label, "deep msgs": exact, "shallow msgs": exact},
	}
	const machines = 8
	cl, err := cluster.New(cluster.Config{
		Machines:  machines,
		Transport: transport.NewInproc(modeledLink()),
	})
	if err != nil {
		return nil, err
	}
	defer cl.Shutdown()
	client := cl.Client()

	sizes := []int{4, 8, 16, 32}
	if cfg.Quick {
		sizes = []int{4, 8, 16}
	}
	for _, p := range sizes {
		// Worker dims: tiny slabs (p×p×1) — we only measure group setup.
		var f *pfft.PFFT
		deep, err := measure(0, 1, func() (err error) {
			f, err = pfft.New(bg, client, machineList(p, machines), p, p, 1)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := f.Close(bg); err != nil {
			return nil, err
		}
		shallow, err := measure(0, 1, func() (err error) {
			f, err = pfft.NewShallow(bg, client, machineList(p, machines), p, p, 1)
			return err
		})
		if err != nil {
			return nil, err
		}
		if err := f.Close(bg); err != nil {
			return nil, err
		}

		t.AddRow(fmt.Sprintf("%d", p), msPrec(deep.per), fmt.Sprintf("%.0f", deep.msgs),
			msPrec(shallow.per), fmt.Sprintf("%.0f", shallow.msgs),
			fmt.Sprintf("%.1fx", shallow.msgs/deep.msgs))
	}
	t.Note("deep copy sends the member table once per worker (O(N) messages); shallow costs O(N) round trips per worker (O(N²) total)")
	return t, nil
}
