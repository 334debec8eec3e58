package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/kernel"
)

// chainName is the fused scale → axpy → sum chain owner_compute runs
// through Array.ApplyPipeline.
const chainName = "bench.chain"

func init() {
	kernel.RegisterPipeline(chainName, kernel.Pipeline{Stages: []kernel.Stage{
		kernel.MapStage(kernel.Scale),
		kernel.BinaryStage(kernel.Axpy),
		kernel.ReduceStage(kernel.Sum),
	}})
}

type ownerDims struct {
	n, page   int // the swept arrays are n³ in page³ pages
	jn, jpage int // the Jacobi grid
	jiters    int // sweeps per timed JacobiOwner call (even: ends in the home bank)
}

// ownerShape: 192³ operands (54 MiB each; with the issue's 256³ a run
// would hold too few rounds for a steady median) and a 128³ Jacobi grid at
// full size; 128³ and 64³ beside another workload's traced pass.
func ownerShape(sz size) ownerDims {
	switch sz {
	case full:
		return ownerDims{n: 192, page: 32, jn: 128, jpage: 32, jiters: 4}
	case short:
		return ownerDims{n: 128, page: 32, jn: 64, jpage: 32, jiters: 4}
	}
	return ownerDims{n: 32, page: 16, jn: 32, jpage: 16, jiters: 2}
}

// pair is two conformant arrays: x is swept in place, y is the operand.
type pair struct{ x, y *core.Array }

type ownerState struct {
	cl     *cluster.Cluster
	two    pair        // pages round-robin over a device on each machine
	one    pair        // all pages on one device: a serial device is one core
	jacobi *core.Array // striped over both devices, with the scratch bank
}

func (s *ownerState) close() { s.cl.Shutdown() }

func striped(g, devices int) (core.PageMap, error) { return core.NewStripedMap(g, g, g, devices) }

func setUpOwner(d ownerDims, a, b, grid []float64) (*ownerState, error) {
	cl, err := bootCluster()
	if err != nil {
		return nil, err
	}
	s := &ownerState{cl: cl}
	fail := func(err error) (*ownerState, error) {
		cl.Shutdown()
		return nil, err
	}
	for _, mk := range []struct {
		dst  **core.Array
		name string
		on   []int
		data []float64
	}{
		{&s.two.x, "a", []int{0, 1}, a}, {&s.two.y, "b", []int{0, 1}, b},
		{&s.one.x, "a1", []int{0}, a}, {&s.one.y, "b1", []int{0}, b},
	} {
		arr, err := newArray(cl, mk.name, mk.on, d.n, d.page, 1, roundRobin)
		if err == nil {
			err = arr.Write(bg, mk.data, arr.Bounds())
		}
		if err != nil {
			return fail(err)
		}
		*mk.dst = arr
	}
	if s.jacobi, err = newArray(cl, "jacobi", []int{0, 1}, d.jn, d.jpage, 2, striped); err != nil {
		return fail(err)
	}
	if err := s.jacobi.Write(bg, grid, s.jacobi.Bounds()); err != nil {
		return fail(err)
	}
	return s, nil
}

// sweepTimes are the seconds one iteration's five collectives took.
type sweepTimes struct{ scale, axpy, sum, dot, chain float64 }

func (t sweepTimes) unfused() float64 { return t.scale + t.axpy + t.sum + t.dot }

// sweepSums are the reductions one iteration returned.
type sweepSums struct{ sum, dot, chain float64 }

// sweep runs one iteration on a pair: the four unfused collectives, then
// the fused chain. With x = a and y = b on entry it computes 2a, 2a+2b,
// Σ(2a+2b), Σ(2a+2b)·b, and the chain ½(2a+2b) − b = a with Σa: x is back
// to a on return, and with powers of two every value is exact.
func (r *report) sweep(s *sampler, p pair, tag string) (sweepTimes, sweepSums, error) {
	var t sweepTimes
	var got sweepSums
	box := p.x.Bounds()
	steps := []struct {
		name string
		secs *float64
		f    func(ctx context.Context) error
	}{
		{"core.Array.Scale", &t.scale, func(ctx context.Context) error { return p.x.Scale(ctx, box, 2) }},
		{"core.Array.Axpy", &t.axpy, func(ctx context.Context) error { return p.x.Axpy(ctx, 2, p.y, box) }},
		{"core.Array.Sum", &t.sum, func(ctx context.Context) (err error) { got.sum, err = p.x.Sum(ctx, box); return }},
		{"core.Array.Dot", &t.dot, func(ctx context.Context) (err error) { got.dot, err = p.x.Dot(ctx, p.y, box); return }},
		{"core.Array.ApplyPipeline", &t.chain, func(ctx context.Context) error {
			res, err := p.x.ApplyPipeline(ctx, box, chainName, []*core.Array{p.y}, []float64{0.5}, []float64{-1}, nil)
			if err == nil {
				got.chain = res[0].Acc[0]
			}
			return err
		}},
	}
	for _, st := range steps {
		t0 := time.Now()
		if err := r.layerCall(s, st.name+tag, st.f); err != nil {
			return t, got, err
		}
		*st.secs = time.Since(t0).Seconds()
	}
	return t, got, nil
}

// untimed is the report of sweeps made outside the measured slices: it
// records no spans.
var untimed = &report{}

// ownerPass is the owner_compute workload: collectives that execute
// inside the devices holding the pages. The operation is one iteration on
// the pair dealt over two devices — Scale, Axpy, Sum, Dot, then the fused
// chain — and its bare reference bareSweep, the same arithmetic as plain
// loops over flat slices, on two goroutines. The variant is the same
// iteration with all pages on one device, where a core stays idle, and its
// reference the loops on one goroutine. A round of the pass is one of each;
// a traced pass gives a quarter of a slice to fixed-count Jacobi solves,
// whose rate is a per-layer number: every sweep waits for the slower of
// two devices.
type ownerPass struct {
	p     plan
	r     *report
	d     ownerDims
	st    *ownerState
	want  sweepSums
	local []float64 // the reference grid after the warm-up's four sweeps
	x, y  []float64 // the flat copies of a and b the bare loops sweep

	sample2, sample1, sampleJ sampler
	two, one                  []sweepTimes
	bare2, bare1              []float64 // seconds per bareSweep, on two goroutines and on one
	results                   []sweepSums
	solves                    []float64 // seconds per JacobiOwner call
	sweepEnds, solveEnds      []int     // rounds and solves done at the end of each slice
}

func startOwnerCompute(p plan) (pass, error) {
	single := sampler{every: 1, drain: 1}
	w := &ownerPass{p: p, r: newReport(p.traced), d: ownerShape(p.size),
		sample2: single, sample1: single, sampleJ: single}
	d, r := w.d, w.r
	elems := d.n * d.n * d.n
	a := genDyadics(rngFor(p.seed, "owner_compute/a"), elems)
	b := genDyadics(rngFor(p.seed, "owner_compute/b"), elems)
	grid := genReals(rngFor(p.seed, "owner_compute/jacobi"), d.jn*d.jn*d.jn)
	st, secs, err := setUp(p.repeatSetup, func() (*ownerState, error) { return setUpOwner(d, a, b, grid) })
	if err != nil {
		return nil, err
	}
	w.st = st
	r.setE2E("setup_s", "s", secs, len(secs))

	// The closed forms for the seeded fill; exact, the values being dyadic.
	var sa, sb, sab, sbb float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		sab += a[i] * b[i]
		sbb += b[i] * b[i]
	}
	w.want = sweepSums{sum: 2*sa + 2*sb, dot: 2*sab + 2*sbb, chain: sa}
	w.x, w.y = append([]float64(nil), a...), b

	// Warm-up, which is also the Jacobi correctness check: four sweeps
	// from the seeded grid against the single-thread reference.
	w.local = grid
	if err := w.warmUp(); err != nil {
		st.close()
		return nil, err
	}
	runtime.GC()
	return w, nil
}

func (w *ownerPass) warmUp() error {
	d, r, st := w.d, w.r, w.st
	wantRes := core.JacobiLocal(w.local, d.jn, d.jn, d.jn, 4)
	gotRes, err := core.JacobiOwner(bg, st.jacobi, 4)
	if err != nil {
		return err
	}
	back := make([]float64, len(w.local))
	if err := st.jacobi.Read(bg, back, st.jacobi.Bounds()); err != nil {
		return err
	}
	var worst float64
	for i := range back {
		worst = math.Max(worst, math.Abs(back[i]-w.local[i]))
	}
	r.check(math.Abs(gotRes-wantRes) <= 1e-12*math.Abs(wantRes) && worst <= 1e-12,
		"jacobi: residual %g vs local %g, grid differs by %g", gotRes, wantRes, worst)
	for _, pr := range []pair{st.two, st.one} {
		if _, _, err := untimed.sweep(&sampler{}, pr, ""); err != nil {
			return err
		}
	}
	bareSweep(w.x, w.y, 2)
	bareSweep(w.x, w.y, 1)
	return nil
}

func (w *ownerPass) slice(d time.Duration) error {
	if w.p.traced {
		d = d * 3 / 4
	}
	_, err := loopFor(d, 1, func(int) error {
		t0 := time.Now()
		b2 := bareSweep(w.x, w.y, 2)
		w.bare2 = append(w.bare2, time.Since(t0).Seconds())
		t2, got2, err := w.r.sweep(&w.sample2, w.st.two, "")
		if err != nil {
			return err
		}
		t1, got1, err := w.r.sweep(&w.sample1, w.st.one, " 1dev")
		t0 = time.Now()
		b1 := bareSweep(w.x, w.y, 1)
		w.bare1 = append(w.bare1, time.Since(t0).Seconds())
		w.two, w.one = append(w.two, t2), append(w.one, t1)
		w.results = append(w.results, got2, got1, b2, b1)
		return err
	})
	w.sweepEnds = append(w.sweepEnds, len(w.two))
	if err != nil || !w.p.traced {
		return err
	}
	solves, err := loopFor(d/3, 1, func(int) error {
		return w.r.layerCall(&w.sampleJ, "core.JacobiOwner", func(ctx context.Context) error {
			_, err := core.JacobiOwner(ctx, w.st.jacobi, w.d.jiters)
			return err
		})
	})
	w.solves = append(w.solves, scaleAll(solves, 1e-9)...)
	w.solveEnds = append(w.solveEnds, len(w.solves))
	w.r.spans.drain() // before another pass's slice fills the ring
	return err
}

func (w *ownerPass) finish() (*report, error) {
	defer w.st.close()
	r, d := w.r, w.d
	r.ops(12*len(w.two)+len(w.solves), 0)
	n3 := float64(d.n*d.n*d.n) / 1e6 // Melem per array
	col := func(ts []sweepTimes, f func(sweepTimes) float64) []float64 {
		out := make([]float64, len(ts))
		for i, t := range ts {
			out[i] = f(t)
		}
		return out
	}
	total := func(t sweepTimes) float64 { return t.unfused() + t.chain }
	r.setE2E("op_x_bare", "x", overBare(col(w.two, total), w.bare2, w.sweepEnds), len(w.two))
	r.setE2E("alt_x_bare", "x", overBare(col(w.one, total), w.bare1, w.sweepEnds), len(w.one))
	rate := func(secs []float64, work float64) []float64 { return rates(perSlice(secs, w.sweepEnds, median), work) }
	r.setLayer("pagedev.sweep_Melem_per_s", "Melem/s", rate(col(w.two, sweepTimes.unfused), 4*n3), len(w.two))
	r.setLayer("pagedev.sweep1dev_Melem_per_s", "Melem/s", rate(col(w.one, total), 5*n3), len(w.one))
	r.setLayer("pagedev.chain_Melem_per_s", "Melem/s", rate(col(w.two, func(t sweepTimes) float64 { return t.chain }), n3), len(w.two))
	r.setLayer("calib.flat_sweep2_Melem_per_s", "Melem/s", rate(w.bare2, 5*n3), len(w.bare2))
	r.setLayer("calib.flat_sweep_Melem_per_s", "Melem/s", rate(w.bare1, 5*n3), len(w.bare1))

	// Correctness, outside the timed slices: every iteration's reductions,
	// the references' too, equal the closed forms, to the bit.
	for i, got := range w.results {
		r.check(got == w.want, "owner_compute sweep %d: got sum %v dot %v chain %v, want %v %v %v",
			i, got.sum, got.dot, got.chain, w.want.sum, w.want.dot, w.want.chain)
	}
	if w.p.traced {
		cells := float64(d.jiters) * float64(d.jn*d.jn*d.jn) / 1e6
		r.setLayer("core.jacobi_Mcell_per_s", "Mcell/s", rates(perSlice(w.solves, w.solveEnds, median), cells), len(w.solves))
		if err := ownerLayers(r, w.st, d, w.two, n3, w.local); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// ownerLayers gives the per-collective rates of the device row engine and
// what a collective and a Jacobi sweep cost beneath the arithmetic.
func ownerLayers(r *report, st *ownerState, d ownerDims, two []sweepTimes, n3 float64, local []float64) error {
	med := func(f func(sweepTimes) float64) float64 {
		v := make([]float64, len(two))
		for i, t := range two {
			v[i] = f(t)
		}
		return median(v)
	}
	scale, axpy := med(func(t sweepTimes) float64 { return t.scale }), med(func(t sweepTimes) float64 { return t.axpy })
	sum, dot := med(func(t sweepTimes) float64 { return t.sum }), med(func(t sweepTimes) float64 { return t.dot })
	chain, unfused := med(func(t sweepTimes) float64 { return t.chain }), med(sweepTimes.unfused)
	r.layer["pagedev.scale_Melem_per_s"] = Stat{Value: n3 / scale, Unit: "Melem/s", N: len(two)}
	r.layer["pagedev.axpy_Melem_per_s"] = Stat{Value: n3 / axpy, Unit: "Melem/s", N: len(two)}
	r.layer["pagedev.sum_Melem_per_s"] = Stat{Value: n3 / sum, Unit: "Melem/s", N: len(two)}
	r.layer["pagedev.dot_Melem_per_s"] = Stat{Value: n3 / dot, Unit: "Melem/s", N: len(two)}
	// Axis-3 rows streamed, E13's unit: one per operand row of n elements.
	r.setLayer1("pagedev.rows_per_s", "1/s", 6*float64(d.n*d.n)/unfused)
	// Computed, not measured, bytes: 8 B per element read or written
	// (scale 16, axpy 24, sum 8, dot 16).
	r.setLayer1("pagedev.sweep_computed_GBps", "GB/s", 64*n3*1e6/unfused/1e9)
	r.setLayer1("pagedev.chain_vs_unfused", "ratio", chain/(scale+axpy+sum))

	sw, err := countersAround(func() error {
		_, _, err := untimed.sweep(&sampler{}, st.two, "")
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer1("disk.ops_per_sweep", "count", float64(sw.DiskReads+sw.DiskWrites))

	// A collective over two pages: plan, fan-out and merge, no arithmetic
	// to speak of.
	small := core.NewDomain(0, d.page, 0, d.page, 0, 2*d.page)
	floor, err := loopFor(0, 500, func(int) error {
		_, err := st.two.x.Sum(bg, small)
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("core.collective_floor_us", "us", scaleAll(perSegment(floor, median), 1e-3), len(floor))

	cells := float64(d.jn*d.jn*d.jn) / 1e6
	halo, err := countersAround(func() error {
		_, err := core.JacobiOwner(bg, st.jacobi, 2)
		return err
	})
	if err != nil {
		return err
	}
	// Every frame of a sweep: the plane calls and the device-to-device
	// halo pulls they cause.
	r.setLayer1("pagedev.jacobi_halo_msgs_per_iter", "count", float64(halo.MessagesSent)/2)
	r.setLayer1("pagedev.jacobi_halo_KB_per_iter", "KB", float64(halo.BytesSent)/2/1e3)
	syncSolves, err := loopFor(0, 3, func(int) error {
		_, err := core.JacobiOwnerSync(bg, st.jacobi, d.jiters)
		return err
	})
	if err != nil {
		return err
	}
	r.setLayer("core.jacobi_sync_Mcell_per_s", "Mcell/s", rates(scaleAll(syncSolves, 1e-9), float64(d.jiters)*cells), len(syncSolves))
	t0 := time.Now()
	core.JacobiLocal(local, d.jn, d.jn, d.jn, 4)
	r.setLayer1("core.jacobi_local_Mcell_per_s", "Mcell/s", 4*cells/time.Since(t0).Seconds())
	return nil
}
