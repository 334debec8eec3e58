package main

import (
	"context"
	"math"
	"runtime"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/pagedev"
)

type streamDims struct {
	n    int // the array is n³ float64s
	page int // in page³ pages
}

// streamShape: 256³ (128 MiB) in 32³ (256 KiB) pages at full size; 128³
// (16 MiB) beside another workload's traced pass.
func streamShape(sz size) streamDims {
	switch sz {
	case full:
		return streamDims{n: 256, page: 32}
	case short:
		return streamDims{n: 128, page: 32}
	}
	return streamDims{n: 32, page: 16}
}

type streamState struct {
	cl     *cluster.Cluster
	plain  *core.Array // pages round-robin over one device per machine
	mirror *core.Array // the same layout, every page on both devices
}

func (s *streamState) close() { s.cl.Shutdown() }

// newArray creates an n³ array in page³ pages over one private-disk device
// on each of the given machines, laid out by mapOf.
func newArray(cl *cluster.Cluster, name string, on []int, n, page, banks int, mapOf func(g, devices int) (core.PageMap, error)) (*core.Array, error) {
	g := n / page
	pm, err := mapOf(g, len(on))
	if err != nil {
		return nil, err
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), on, name, banks*pm.PagesPerDevice(), page, page, page, pagedev.DiskPrivate)
	if err != nil {
		return nil, err
	}
	return core.NewArray(bg, storage, pm, n, n, n, page, page, page)
}

func roundRobin(g, devices int) (core.PageMap, error) { return core.NewRoundRobinMap(g, g, g, devices) }

func mirrored(g, devices int) (core.PageMap, error) {
	base, err := roundRobin(g, devices)
	if err != nil {
		return nil, err
	}
	return core.NewReplicatedMap(base, 2)
}

func setUpStream(d streamDims, data []float64) (*streamState, error) {
	cl, err := bootCluster()
	if err != nil {
		return nil, err
	}
	s := &streamState{cl: cl}
	both := []int{0, 1}
	if s.plain, err = newArray(cl, "stream", both, d.n, d.page, 1, roundRobin); err == nil {
		s.mirror, err = newArray(cl, "stream-k2", both, d.n, d.page, 1, mirrored)
	}
	// The initial fill: both arrays hold the data before the warm-up.
	for _, a := range []*core.Array{s.plain, s.mirror} {
		if err == nil {
			err = a.Write(bg, data, a.Bounds())
		}
	}
	if err != nil {
		cl.Shutdown()
		return nil, err
	}
	return s, nil
}

// streamPass is the array_stream workload: one caller writing a whole
// array from a client buffer and reading it back. The operation is a Write
// and a Read of the plain array, the variant the same on the 2-way
// replicated one, and the bare reference of both a write and a read of the
// same bytes over bareStream. A round of the pass is one of each.
type streamPass struct {
	p         plan
	r         *report
	d         streamDims
	st        *streamState
	bare      *bareStream
	data, out []float64
	sample    sampler
	// Seconds per call, round by round: write, read, write k=2, read k=2,
	// bare write, bare read.
	times [6][]float64
	ends  []int // rounds done at the end of each slice
}

func startArrayStream(p plan) (pass, error) {
	w := &streamPass{p: p, r: newReport(p.traced), d: streamShape(p.size), sample: sampler{every: 1, drain: 1}}
	elems := w.d.n * w.d.n * w.d.n
	w.data = genReals(rngFor(p.seed, "array_stream/data"), elems)
	w.out = make([]float64, elems)
	st, secs, err := setUp(p.repeatSetup, func() (*streamState, error) { return setUpStream(w.d, w.data) })
	if err != nil {
		return nil, err
	}
	w.st = st
	w.r.setE2E("setup_s", "s", secs, len(secs))
	if w.bare, err = newBareStream(w.d.n, w.d.page); err != nil {
		st.close()
		return nil, err
	}
	// Warm-up: first-touch faults of the read buffer and of the reference's
	// memory, buffer pools filled to the large classes, every connection
	// carrying large frames.
	for i := 0; i < 2; i++ {
		if err := w.iterate(false); err != nil {
			w.close()
			return nil, err
		}
	}
	runtime.GC()
	return w, nil
}

func (w *streamPass) close() {
	w.bare.close()
	w.st.close()
}

// iterate is one round: the reference, then both arrays written and read
// once. Every round writes different bytes, so that a read-back equal to
// the buffer cannot be an earlier round's data.
func (w *streamPass) iterate(record bool) error {
	pageElems := w.d.page * w.d.page * w.d.page
	for i := 0; i < len(w.data); i += pageElems {
		w.data[i] = -w.data[i]
	}
	st, box := w.st, w.st.plain.Bounds()
	for k, op := range []struct {
		name string // "" for the reference, which the runtime has no part in
		f    func(ctx context.Context) error
	}{
		{"core.Array.Write", func(ctx context.Context) error { return st.plain.Write(ctx, w.data, box) }},
		{"core.Array.Read", func(ctx context.Context) error { return st.plain.Read(ctx, w.out, box) }},
		{"core.Array.Write k=2", func(ctx context.Context) error { return st.mirror.Write(ctx, w.data, box) }},
		{"core.Array.Read k=2", func(ctx context.Context) error { return st.mirror.Read(ctx, w.out, box) }},
		{"", func(context.Context) error { return w.bare.write(w.data) }},
		{"", func(context.Context) error { return w.bare.read(w.out) }},
	} {
		t0 := time.Now()
		var err error
		if record && op.name != "" {
			err = w.r.layerCall(&w.sample, op.name, op.f)
		} else {
			err = op.f(bg)
		}
		if err != nil {
			return err
		}
		if record {
			w.times[k] = append(w.times[k], time.Since(t0).Seconds())
		}
	}
	return nil
}

func (w *streamPass) slice(d time.Duration) error {
	_, err := loopFor(d, 1, func(int) error { return w.iterate(true) })
	w.ends = append(w.ends, len(w.times[0]))
	w.r.spans.drain() // before another pass's slice fills the ring
	return err
}

func (w *streamPass) finish() (*report, error) {
	defer w.close()
	r, st, box := w.r, w.st, w.st.plain.Bounds()
	payloadMB := float64(8*len(w.data)) / 1e6
	rounds := len(w.times[0])
	r.ops(6*rounds, 0)
	bare := sum2(w.times[4], w.times[5])
	r.setE2E("op_x_bare", "x", overBare(sum2(w.times[0], w.times[1]), bare, w.ends), rounds)
	r.setE2E("alt_x_bare", "x", overBare(sum2(w.times[2], w.times[3]), bare, w.ends), rounds)
	rate := func(ts []float64, mb float64) []float64 { return rates(perSlice(ts, w.ends, median), mb) }
	r.setLayer("core.write_MBps", "MB/s", rate(w.times[0], payloadMB), rounds)
	r.setLayer("core.read_MBps", "MB/s", rate(w.times[1], payloadMB), rounds)
	r.setLayer("core.write_k2_MBps", "MB/s", rate(w.times[2], payloadMB), rounds)
	r.setLayer("core.read_k2_MBps", "MB/s", rate(w.times[3], payloadMB), rounds)
	r.setLayer("calib.stream_MBps", "MB/s", rate(bare, 2*payloadMB), rounds)

	// Correctness, outside the timed slices: both arrays, and the
	// reference, read back bit for bit what was last written.
	for _, a := range []struct {
		name string
		read func() error
	}{
		{"k=1", func() error { return st.plain.Read(bg, w.out, box) }},
		{"k=2", func() error { return st.mirror.Read(bg, w.out, box) }},
		{"bare reference", func() error { return w.bare.read(w.out) }},
	} {
		clear(w.out)
		err := a.read()
		r.check(err == nil && sameBits(w.out, w.data), "array_stream %s: read-back differs from what was written (err %v)", a.name, err)
	}

	if w.p.traced {
		if err := arrayStreamLayers(r, st, w.d, w.data, w.out, payloadMB); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// arrayStreamLayers counts what core puts on the wire for the streamed
// array and times single pages through the device stub.
func arrayStreamLayers(r *report, st *streamState, d streamDims, data, out []float64, payloadMB float64) error {
	box := st.plain.Bounds()
	payload := payloadMB * 1e6
	w, err := countersAround(func() error { return st.plain.Write(bg, data, box) })
	if err != nil {
		return err
	}
	rd, err := countersAround(func() error { return st.plain.Read(bg, out, box) })
	if err != nil {
		return err
	}
	w2, err := countersAround(func() error { return st.mirror.Write(bg, data, box) })
	if err != nil {
		return err
	}
	r.setLayer1("core.msgs_per_MB_write", "1/MB", float64(w.MessagesSent)/payloadMB)
	r.setLayer1("core.msgs_per_MB_read", "1/MB", float64(rd.MessagesSent)/payloadMB)
	r.setLayer1("core.wire_bytes_per_payload_byte_k1", "ratio", float64(w.BytesSent)/payload)
	r.setLayer1("core.wire_bytes_per_payload_byte_k2", "ratio", float64(w2.BytesSent)/payload)

	// A box shifted by one element: every region is a sub-box of a page.
	shifted := core.NewDomain(1, d.n, 1, d.n, 1, d.n)
	sub := out[:shifted.Size()]
	un, err := loopFor(0, minSegments, func(int) error { return st.plain.Read(bg, sub, shifted) })
	if err != nil {
		return err
	}
	r.setLayer("core.read_unaligned_MBps", "MB/s", rates(scaleAll(un, 1e-9), float64(8*len(sub))/1e6), len(un))

	dev := st.plain.Storage().Device(0)
	page := pagedev.NewArrayPage(d.page, d.page, d.page)
	pages := st.plain.Map().PagesPerDevice()
	rdPage, err := loopFor(0, 200, func(i int) error { return dev.ReadPage(bg, page, i%pages) })
	if err != nil {
		return err
	}
	// Writing back the page the read loop ended on leaves the array as it was.
	wr, err := loopFor(0, 200, func(int) error { return dev.WritePage(bg, page, 199%pages) })
	if err != nil {
		return err
	}
	r.setLayer("pagedev.page_read_us", "us", scaleAll(perSegment(rdPage, median), 1e-3), len(rdPage))
	r.setLayer("pagedev.page_write_us", "us", scaleAll(perSegment(wr, median), 1e-3), len(wr))
	return nil
}
