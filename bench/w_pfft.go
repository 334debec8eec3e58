package main

import (
	"context"
	"math"
	"math/cmplx"
	"runtime"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/fft"
	"oopp/internal/pfft"
)

type pfftDims struct{ n int } // the transform is n³ complex128s

// pfftShape: 128³ (32 MiB) at full size, 64³ (4 MiB) beside another
// workload's traced pass.
func pfftShape(sz size) pfftDims {
	switch sz {
	case full:
		return pfftDims{n: 128}
	case short:
		return pfftDims{n: 64}
	}
	return pfftDims{n: 16}
}

type pfftState struct {
	cl   *cluster.Cluster
	f    *pfft.PFFT // one worker on each machine
	solo *pfft.PFFT // one worker on machine 0: the same transform with no exchange
}

func (s *pfftState) close() { s.cl.Shutdown() }

// setUpPFFT spawns the FFT workers and loads the input into their slabs.
func setUpPFFT(n int, x []complex128) (*pfftState, error) {
	cl, err := bootCluster()
	if err != nil {
		return nil, err
	}
	s := &pfftState{cl: cl}
	for _, mk := range []struct {
		dst **pfft.PFFT
		on  []int
	}{{&s.f, []int{0, 1}}, {&s.solo, []int{0}}} {
		f, err := pfft.New(bg, cl.Client(), mk.on, n, n, n)
		if err == nil {
			err = f.Load(bg, x)
		}
		if err != nil {
			cl.Shutdown()
			return nil, err
		}
		*mk.dst = f
	}
	return s, nil
}

// maxRelDiff is max|a-b| over max|b|.
func maxRelDiff(a, b []complex128) float64 {
	var diff, scale float64
	for i := range a {
		diff = math.Max(diff, cmplx.Abs(a[i]-b[i]))
		scale = math.Max(scale, cmplx.Abs(b[i]))
	}
	return diff / scale
}

// pfftPass is the pfft workload: the paper's flagship, a 3D FFT computed
// jointly by one worker process per machine that exchange transpose blocks
// by remote method calls. The operation is one Transform by the two
// workers, the variant one by a single worker — the same layers with no
// exchange — and the bare reference of both bareFFT, a plain
// single-goroutine FFT of the same array. A round of the pass is one of
// each, all forward or all inverse, in turn.
type pfftPass struct {
	p       plan
	r       *report
	n       int
	st      *pfftState
	bare    *bareFFT
	x, got  []complex128
	ref     []complex128 // the array bareFFT transforms
	localMs []float64    // single-thread fft.FFT3D of the same input
	sample  sampler
	// Nanoseconds per transform, round by round.
	two, solo, flat []float64
	ends            []int // rounds done at the end of each slice
}

func startPFFT(p plan) (pass, error) {
	w := &pfftPass{p: p, r: newReport(p.traced), n: pfftShape(p.size).n, sample: sampler{every: 1, drain: 1}}
	n := w.n
	w.x = genComplex(rngFor(p.seed, "pfft/input"), n*n*n)
	w.got = make([]complex128, len(w.x))
	w.ref = append([]complex128(nil), w.x...)
	w.bare = newBareFFT(n)
	st, secs, err := setUp(p.repeatSetup, func() (*pfftState, error) { return setUpPFFT(n, w.x) })
	if err != nil {
		return nil, err
	}
	w.st = st
	w.r.setE2E("setup_s", "s", secs, len(secs))
	if err := w.warmUp(); err != nil {
		st.close()
		return nil, err
	}
	runtime.GC()
	return w, nil
}

// warmUp is also the first correctness check: the first forward transform
// of the workers, and of the reference, equals fft.FFT3D of the same input.
func (w *pfftPass) warmUp() error {
	n := w.n
	want := append([]complex128(nil), w.x...)
	t0 := time.Now()
	if err := fft.FFT3D(want, n, n, n, -1); err != nil {
		return err
	}
	w.localMs = []float64{time.Since(t0).Seconds() * 1e3}
	for _, f := range []struct {
		name string
		f    *pfft.PFFT
	}{{"two workers", w.st.f}, {"one worker", w.st.solo}} {
		if err := f.f.Transform(bg, -1); err != nil {
			return err
		}
		if err := f.f.Gather(bg, w.got); err != nil {
			return err
		}
		w.r.check(maxRelDiff(w.got, want) <= 1e-9, "pfft, %s: first forward transform differs from fft.FFT3D by %g", f.name, maxRelDiff(w.got, want))
		if err := f.f.Transform(bg, +1); err != nil {
			return err
		}
	}
	w.bare.transform(w.ref, false)
	w.r.check(maxRelDiff(w.ref, want) <= 1e-9, "pfft, bare reference: forward transform differs from fft.FFT3D by %g", maxRelDiff(w.ref, want))
	w.bare.transform(w.ref, true)
	return nil
}

// round transforms once with the reference, the two workers and the single
// worker, forward in even rounds and back in odd ones.
func (w *pfftPass) round(record bool) error {
	sign := -1
	if len(w.two)%2 == 1 {
		sign = +1
	}
	t0 := time.Now()
	w.bare.transform(w.ref, sign > 0)
	flat := float64(time.Since(t0))
	var ns [2]float64
	for k, f := range []*pfft.PFFT{w.st.f, w.st.solo} {
		t0 := time.Now()
		err := w.r.layerCall(&w.sample, [2]string{"pfft.PFFT.Transform", "pfft.PFFT.Transform 1 worker"}[k],
			func(ctx context.Context) error { return f.Transform(ctx, sign) })
		if err != nil {
			return err
		}
		ns[k] = float64(time.Since(t0))
	}
	w.flat, w.two, w.solo = append(w.flat, flat), append(w.two, ns[0]), append(w.solo, ns[1])
	return nil
}

func (w *pfftPass) slice(d time.Duration) error {
	_, err := loopFor(d, 1, func(int) error { return w.round(true) })
	w.ends = append(w.ends, len(w.two))
	w.r.spans.drain() // before another pass's slice fills the ring
	return err
}

func (w *pfftPass) finish() (*report, error) {
	defer w.st.close()
	r, n, f := w.r, w.n, w.st.f
	// An even number of rounds leaves every array as it was loaded.
	if len(w.two)%2 == 1 {
		if err := w.round(true); err != nil {
			return nil, err
		}
		w.ends[len(w.ends)-1]++
	}
	rounds := len(w.two)
	r.ops(3*rounds, 0)
	r.setE2E("op_x_bare", "x", overBare(w.two, w.flat, w.ends), rounds)
	r.setE2E("alt_x_bare", "x", overBare(w.solo, w.flat, w.ends), rounds)
	ms := func(ns []float64) []float64 { return scaleAll(perSlice(ns, w.ends, median), 1e-6) }
	r.setLayer("pfft.fft_ms", "ms", ms(w.two), rounds)
	r.setLayer("pfft.w1_ms", "ms", ms(w.solo), rounds)
	r.setLayer("calib.fft_ms", "ms", ms(w.flat), rounds)

	// Correctness, outside the timed slices: the transforms round-trip.
	t0 := time.Now()
	if err := f.Gather(bg, w.got); err != nil {
		return nil, err
	}
	gatherMs := time.Since(t0).Seconds() * 1e3
	r.check(maxRelDiff(w.got, w.x) <= 1e-9, "pfft: %d transforms by two workers do not round-trip the input (off by %g)", rounds, maxRelDiff(w.got, w.x))
	if err := w.st.solo.Gather(bg, w.got); err != nil {
		return nil, err
	}
	r.check(maxRelDiff(w.got, w.x) <= 1e-9, "pfft: %d transforms by one worker do not round-trip the input (off by %g)", rounds, maxRelDiff(w.got, w.x))
	r.check(maxRelDiff(w.ref, w.x) <= 1e-9, "pfft: %d transforms by the bare reference do not round-trip the input (off by %g)", rounds, maxRelDiff(w.ref, w.x))

	if w.p.traced {
		// The repository's single-thread FFT again, now on the loaded process.
		for i := 0; i < 4; i++ {
			copy(w.got, w.x)
			t0 := time.Now()
			if err := fft.FFT3D(w.got, n, n, n, -1); err != nil {
				return nil, err
			}
			w.localMs = append(w.localMs, time.Since(t0).Seconds()*1e3)
		}
		r.setLayer("fft.local_ms", "ms", w.localMs, len(w.localMs))
		r.setLayer1("pfft.gather_ms", "ms", gatherMs)
		loads, err := loopFor(0, 3, func(int) error { return f.Load(bg, w.x) })
		if err != nil {
			return nil, err
		}
		r.setLayer("pfft.load_ms", "ms", scaleAll(loads, 1e-6), len(loads))
		d, err := countersAround(func() error {
			if err := f.Transform(bg, -1); err != nil {
				return err
			}
			return f.Transform(bg, +1)
		})
		if err != nil {
			return nil, err
		}
		r.setLayer1("pfft.msgs_per_transform", "count", float64(d.MessagesSent)/2)
		r.setLayer1("pfft.MB_per_transform", "MB", float64(d.BytesSent)/2/1e6)
	}
	return r, nil
}
