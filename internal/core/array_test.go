package core_test

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/pagedev"
	"oopp/internal/transport"
)

// shadow is a plain local 3D array used as the reference model.
type shadow struct {
	n1, n2, n3 int
	data       []float64
}

func newShadow(n1, n2, n3 int) *shadow {
	return &shadow{n1: n1, n2: n2, n3: n3, data: make([]float64, n1*n2*n3)}
}

func (s *shadow) at(i, j, k int) float64     { return s.data[(i*s.n2+j)*s.n3+k] }
func (s *shadow) set(i, j, k int, v float64) { s.data[(i*s.n2+j)*s.n3+k] = v }

func (s *shadow) read(dom core.Domain) []float64 {
	out := make([]float64, dom.Size())
	d2 := dom.Hi[1] - dom.Lo[1]
	d3 := dom.Hi[2] - dom.Lo[2]
	for i := dom.Lo[0]; i < dom.Hi[0]; i++ {
		for j := dom.Lo[1]; j < dom.Hi[1]; j++ {
			for k := dom.Lo[2]; k < dom.Hi[2]; k++ {
				out[((i-dom.Lo[0])*d2+(j-dom.Lo[1]))*d3+(k-dom.Lo[2])] = s.at(i, j, k)
			}
		}
	}
	return out
}

func (s *shadow) write(sub []float64, dom core.Domain) {
	d2 := dom.Hi[1] - dom.Lo[1]
	d3 := dom.Hi[2] - dom.Lo[2]
	for i := dom.Lo[0]; i < dom.Hi[0]; i++ {
		for j := dom.Lo[1]; j < dom.Hi[1]; j++ {
			for k := dom.Lo[2]; k < dom.Hi[2]; k++ {
				s.set(i, j, k, sub[((i-dom.Lo[0])*d2+(j-dom.Lo[1]))*d3+(k-dom.Lo[2])])
			}
		}
	}
}

func (s *shadow) sum(dom core.Domain) float64 {
	var total float64
	for i := dom.Lo[0]; i < dom.Hi[0]; i++ {
		for j := dom.Lo[1]; j < dom.Hi[1]; j++ {
			for k := dom.Lo[2]; k < dom.Hi[2]; k++ {
				total += s.at(i, j, k)
			}
		}
	}
	return total
}

// buildArray brings up a cluster with one machine per device and an Array
// over it.
func buildArray(t testing.TB, layout string, devices, N1, N2, N3, n1, n2, n3 int) (*core.Array, func()) {
	t.Helper()
	cl, err := cluster.NewLocal(devices, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	pm, err := core.NewPageMap(layout, N1/n1, N2/n2, N3/n3, devices)
	if err != nil {
		cl.Shutdown()
		t.Fatalf("pagemap: %v", err)
	}
	machines := make([]int, devices)
	for i := range machines {
		machines[i] = i
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), machines, "arr", pm.PagesPerDevice(), n1, n2, n3, pagedev.DiskPrivate)
	if err != nil {
		cl.Shutdown()
		t.Fatalf("storage: %v", err)
	}
	arr, err := core.NewArray(bg, storage, pm, N1, N2, N3, n1, n2, n3)
	if err != nil {
		cl.Shutdown()
		t.Fatalf("array: %v", err)
	}
	return arr, func() {
		storage.Close(bg)
		cl.Shutdown()
	}
}

func TestArrayWriteReadRoundTrip(t *testing.T) {
	for _, layout := range core.PageMapNames() {
		t.Run(layout, func(t *testing.T) {
			arr, done := buildArray(t, layout, 3, 8, 8, 8, 4, 4, 4)
			defer done()

			ref := newShadow(8, 8, 8)
			full := core.Box(8, 8, 8)
			src := make([]float64, full.Size())
			for i := range src {
				src[i] = float64(i%23) - 11
			}
			if err := arr.Write(bg, src, full); err != nil {
				t.Fatalf("write: %v", err)
			}
			ref.write(src, full)

			// Read back several subdomains, including page-straddling ones.
			doms := []core.Domain{
				full,
				core.NewDomain(0, 4, 0, 4, 0, 4), // exactly one page
				core.NewDomain(2, 6, 3, 7, 1, 5), // straddles everything
				core.NewDomain(7, 8, 7, 8, 7, 8), // single element
				core.NewDomain(0, 8, 3, 4, 0, 8), // thin slab
				core.NewDomain(4, 4, 0, 8, 0, 8), // empty
			}
			for _, dom := range doms {
				got := make([]float64, dom.Size())
				if err := arr.Read(bg, got, dom); err != nil {
					t.Fatalf("read %v: %v", dom, err)
				}
				want := ref.read(dom)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("read %v: element %d = %v, want %v", dom, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestArrayPartialWrites(t *testing.T) {
	arr, done := buildArray(t, "roundrobin", 2, 8, 8, 8, 4, 4, 4)
	defer done()
	ref := newShadow(8, 8, 8)
	full := core.Box(8, 8, 8)

	// Seed.
	seed := make([]float64, full.Size())
	for i := range seed {
		seed[i] = 1
	}
	if err := arr.Write(bg, seed, full); err != nil {
		t.Fatalf("seed: %v", err)
	}
	ref.write(seed, full)

	// Overlapping partial writes (read-modify-write paths).
	doms := []core.Domain{
		core.NewDomain(1, 3, 1, 3, 1, 3),
		core.NewDomain(2, 7, 0, 2, 3, 8),
		core.NewDomain(3, 5, 3, 5, 3, 5),
	}
	for n, dom := range doms {
		sub := make([]float64, dom.Size())
		for i := range sub {
			sub[i] = float64(100*n + i)
		}
		if err := arr.Write(bg, sub, dom); err != nil {
			t.Fatalf("partial write %v: %v", dom, err)
		}
		ref.write(sub, dom)
	}

	got := make([]float64, full.Size())
	if err := arr.Read(bg, got, full); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := range got {
		if got[i] != ref.data[i] {
			t.Fatalf("element %d = %v, want %v", i, got[i], ref.data[i])
		}
	}
}

func TestArraySumFillScaleMinMax(t *testing.T) {
	arr, done := buildArray(t, "striped", 2, 8, 4, 4, 2, 2, 2)
	defer done()
	ref := newShadow(8, 4, 4)
	full := core.Box(8, 4, 4)

	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i%7) - 3
	}
	if err := arr.Write(bg, src, full); err != nil {
		t.Fatalf("write: %v", err)
	}
	ref.write(src, full)

	doms := []core.Domain{
		full,
		core.NewDomain(0, 2, 0, 2, 0, 2), // one page
		core.NewDomain(1, 7, 1, 3, 0, 4), // partial pages
	}
	for _, dom := range doms {
		got, err := arr.Sum(bg, dom)
		if err != nil {
			t.Fatalf("sum %v: %v", dom, err)
		}
		if want := ref.sum(dom); math.Abs(got-want) > 1e-9 {
			t.Fatalf("sum %v = %v, want %v", dom, got, want)
		}
	}

	// Fill a straddling domain, verify against shadow.
	fillDom := core.NewDomain(1, 5, 0, 4, 1, 3)
	if err := arr.Fill(bg, fillDom, 9.5); err != nil {
		t.Fatalf("fill: %v", err)
	}
	fillVals := make([]float64, fillDom.Size())
	for i := range fillVals {
		fillVals[i] = 9.5
	}
	ref.write(fillVals, fillDom)

	// Scale a different straddling domain.
	scaleDom := core.NewDomain(0, 8, 2, 4, 0, 2)
	if err := arr.Scale(bg, scaleDom, -2); err != nil {
		t.Fatalf("scale: %v", err)
	}
	scaled := ref.read(scaleDom)
	for i := range scaled {
		scaled[i] *= -2
	}
	ref.write(scaled, scaleDom)

	got := make([]float64, full.Size())
	if err := arr.Read(bg, got, full); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := range got {
		if got[i] != ref.data[i] {
			t.Fatalf("after fill/scale element %d = %v, want %v", i, got[i], ref.data[i])
		}
	}

	lo, hi, err := arr.MinMax(bg, full)
	if err != nil {
		t.Fatalf("minmax: %v", err)
	}
	wlo, whi := math.Inf(1), math.Inf(-1)
	for _, v := range ref.data {
		wlo, whi = math.Min(wlo, v), math.Max(whi, v)
	}
	if lo != wlo || hi != whi {
		t.Fatalf("minmax = (%v,%v), want (%v,%v)", lo, hi, wlo, whi)
	}
}

func TestPipelineParity(t *testing.T) {
	arr, done := buildArray(t, "roundrobin", 2, 8, 8, 4, 4, 4, 2)
	defer done()
	full := core.Box(8, 8, 4)
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i)
	}
	if err := arr.Write(bg, src, full); err != nil {
		t.Fatalf("write: %v", err)
	}

	dom := core.NewDomain(1, 7, 2, 8, 0, 3)
	pipelined := make([]float64, dom.Size())
	if err := arr.Read(bg, pipelined, dom); err != nil {
		t.Fatalf("pipelined read: %v", err)
	}
	sumP, err := arr.Sum(bg, dom)
	if err != nil {
		t.Fatalf("pipelined sum: %v", err)
	}

	arr.SetWindow(1)
	sequential := make([]float64, dom.Size())
	if err := arr.Read(bg, sequential, dom); err != nil {
		t.Fatalf("sequential read: %v", err)
	}
	sumS, err := arr.Sum(bg, dom)
	if err != nil {
		t.Fatalf("sequential sum: %v", err)
	}

	for i := range pipelined {
		if pipelined[i] != sequential[i] {
			t.Fatalf("element %d differs across modes", i)
		}
	}
	if sumP != sumS {
		t.Fatalf("sums differ: %v vs %v", sumP, sumS)
	}

	// Tiny window still correct.
	arr.SetWindow(2)
	tiny := make([]float64, dom.Size())
	if err := arr.Read(bg, tiny, dom); err != nil {
		t.Fatalf("window-2 read: %v", err)
	}
	for i := range tiny {
		if tiny[i] != sequential[i] {
			t.Fatalf("window-2 element %d differs", i)
		}
	}
	arr.SetWindow(0) // resets to default
}

func TestMultipleClientsDisjointDomains(t *testing.T) {
	arr, done := buildArray(t, "roundrobin", 4, 16, 4, 4, 4, 4, 4)
	defer done()
	full := core.Box(16, 4, 4)

	// Four concurrent clients write disjoint slabs (pages are 4-plane
	// slabs, so each slab is whole pages — no RMW races by design, as the
	// paper's PageMap discussion prescribes).
	parts := full.SplitAxis1(4)
	var wg sync.WaitGroup
	errs := make(chan error, len(parts))
	for c, dom := range parts {
		wg.Add(1)
		go func(c int, dom core.Domain) {
			defer wg.Done()
			sub := make([]float64, dom.Size())
			for i := range sub {
				sub[i] = float64(c + 1)
			}
			errs <- arr.Write(bg, sub, dom)
		}(c, dom)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent write: %v", err)
		}
	}

	total, err := arr.Sum(bg, full)
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	want := 0.0
	for c, dom := range parts {
		want += float64(c+1) * float64(dom.Size())
	}
	if math.Abs(total-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", total, want)
	}
}

func TestArrayValidation(t *testing.T) {
	arr, done := buildArray(t, "roundrobin", 2, 8, 8, 8, 4, 4, 4)
	defer done()

	buf := make([]float64, 10)
	if err := arr.Read(bg, buf, core.NewDomain(0, 16, 0, 4, 0, 4)); err == nil {
		t.Error("out-of-bounds domain accepted")
	}
	if err := arr.Read(bg, buf, core.NewDomain(0, 4, 0, 4, 0, 4)); err == nil {
		t.Error("wrong subarray size accepted")
	}
	if err := arr.Write(bg, buf, core.NewDomain(4, 0, 0, 4, 0, 4)); err == nil {
		t.Error("inverted domain accepted")
	}
	if _, err := arr.Sum(bg, core.NewDomain(-1, 4, 0, 4, 0, 4)); err == nil {
		t.Error("negative domain accepted")
	}
	// Empty domain is a no-op, not an error.
	if err := arr.Read(bg, nil, core.NewDomain(2, 2, 0, 4, 0, 4)); err != nil {
		t.Errorf("empty domain read: %v", err)
	}
	s, err := arr.Sum(bg, core.NewDomain(2, 2, 0, 4, 0, 4))
	if err != nil || s != 0 {
		t.Errorf("empty domain sum = %v, %v", s, err)
	}

	// Geometry accessors.
	if n1, n2, n3 := arr.Dims(); n1 != 8 || n2 != 8 || n3 != 8 {
		t.Errorf("dims %d %d %d", n1, n2, n3)
	}
	if p1, p2, p3 := arr.PageDims(); p1 != 4 || p2 != 4 || p3 != 4 {
		t.Errorf("page dims %d %d %d", p1, p2, p3)
	}
	if g1, g2, g3 := arr.GridDims(); g1 != 2 || g2 != 2 || g3 != 2 {
		t.Errorf("grid dims %d %d %d", g1, g2, g3)
	}
	if arr.Storage() == nil || arr.Map() == nil {
		t.Error("nil accessors")
	}
}

func TestNewArrayGeometryErrors(t *testing.T) {
	cl, err := cluster.NewLocal(2, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	pm, err := core.NewRoundRobinMap(2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), []int{0, 1}, "x", pm.PagesPerDevice(), 4, 4, 4, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("storage: %v", err)
	}
	defer storage.Close(bg)

	// Non-divisible dims.
	if _, err := core.NewArray(bg, storage, pm, 9, 8, 8, 4, 4, 4); err == nil {
		t.Error("non-divisible dims accepted")
	}
	// Mismatched device count.
	pm3, _ := core.NewRoundRobinMap(2, 2, 2, 3)
	if _, err := core.NewArray(bg, storage, pm3, 8, 8, 8, 4, 4, 4); err == nil {
		t.Error("device count mismatch accepted")
	}
	// Mismatched page dims.
	if _, err := core.NewArray(bg, storage, pm, 8, 8, 8, 2, 2, 2); err == nil {
		t.Error("page dim mismatch accepted")
	}
	// Insufficient capacity: map needs more pages per device than devices
	// provide.
	bigpm, _ := core.NewRoundRobinMap(8, 8, 8, 2) // 256 pages/device
	if _, err := core.NewArray(bg, storage, bigpm, 32, 32, 32, 4, 4, 4); err == nil {
		t.Error("capacity overflow accepted")
	}
	// Zero geometry.
	if _, err := core.NewArray(bg, storage, pm, 0, 8, 8, 4, 4, 4); err == nil {
		t.Error("zero dims accepted")
	}
}

// TestConcurrentWritesSharingPages has several clients write disjoint
// element regions that all live on the SAME pages. The device-side atomic
// sub-page writes must prevent lost updates (a plain client-side
// read-modify-write loses them).
func TestConcurrentWritesSharingPages(t *testing.T) {
	// One device, one big 8x8x8 page: every write shares the page.
	arr, done := buildArray(t, "roundrobin", 1, 8, 8, 8, 8, 8, 8)
	defer done()
	full := core.Box(8, 8, 8)
	if err := arr.Fill(bg, full, 0); err != nil {
		t.Fatalf("fill: %v", err)
	}

	for trial := 0; trial < 10; trial++ {
		// 8 clients each own one i-plane of the single page.
		var wg sync.WaitGroup
		errCh := make(chan error, 8)
		for c := 0; c < 8; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				dom := core.NewDomain(c, c+1, 0, 8, 0, 8)
				sub := make([]float64, dom.Size())
				for i := range sub {
					sub[i] = float64(trial*100 + c)
				}
				errCh <- arr.Write(bg, sub, dom)
			}(c)
		}
		wg.Wait()
		close(errCh)
		for err := range errCh {
			if err != nil {
				t.Fatalf("trial %d write: %v", trial, err)
			}
		}
		got := make([]float64, full.Size())
		if err := arr.Read(bg, got, full); err != nil {
			t.Fatalf("read: %v", err)
		}
		for i := 0; i < 8; i++ {
			for jk := 0; jk < 64; jk++ {
				if v := got[i*64+jk]; v != float64(trial*100+i) {
					t.Fatalf("trial %d: plane %d lost its update: element %d = %v", trial, i, jk, v)
				}
			}
		}
	}
}

// TestFailureMidPipeline deletes a storage device out from under a
// pipelined operation: the operation must return an error (not hang, not
// panic), and the remaining devices must stay usable.
func TestFailureMidPipeline(t *testing.T) {
	arr, done := buildArray(t, "roundrobin", 2, 8, 8, 8, 4, 4, 4)
	defer done()
	full := core.Box(8, 8, 8)
	src := make([]float64, full.Size())
	if err := arr.Write(bg, src, full); err != nil {
		t.Fatalf("write: %v", err)
	}

	// Kill device 1; reads that touch its pages must fail.
	if err := arr.Storage().Device(1).Close(bg); err != nil {
		t.Fatalf("close device: %v", err)
	}
	buf := make([]float64, full.Size())
	if err := arr.Read(bg, buf, full); err == nil {
		t.Fatal("read over a dead device succeeded")
	}
	if _, err := arr.Sum(bg, full); err == nil {
		t.Fatal("sum over a dead device succeeded")
	}
	if err := arr.Fill(bg, full, 1); err == nil {
		t.Fatal("fill over a dead device succeeded")
	}
	// Pages wholly on the surviving device still work.
	lo := core.NewDomain(0, 4, 0, 4, 0, 4) // page (0,0,0) -> device 0 under roundrobin
	small := make([]float64, lo.Size())
	if err := arr.Read(bg, small, lo); err != nil {
		t.Fatalf("surviving device unusable: %v", err)
	}
}

// TestArrayOverTCP runs the distributed array over real sockets.
func TestArrayOverTCP(t *testing.T) {
	cl, err := cluster.New(cluster.Config{Machines: 2, Transport: transport.TCP{}})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	pm, err := core.NewRoundRobinMap(2, 2, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), []int{0, 1}, "tcp", pm.PagesPerDevice(), 4, 4, 4, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("storage: %v", err)
	}
	defer storage.Close(bg)
	arr, err := core.NewArray(bg, storage, pm, 8, 8, 8, 4, 4, 4)
	if err != nil {
		t.Fatalf("array: %v", err)
	}
	full := core.Box(8, 8, 8)
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i % 9)
	}
	if err := arr.Write(bg, src, full); err != nil {
		t.Fatalf("write: %v", err)
	}
	got := make([]float64, full.Size())
	if err := arr.Read(bg, got, full); err != nil {
		t.Fatalf("read: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d over TCP: %v != %v", i, got[i], src[i])
		}
	}
	s, err := arr.Sum(bg, full)
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	var want float64
	for _, v := range src {
		want += v
	}
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s, want)
	}
}

// Property: random write-then-read over random aligned arrays matches the
// shadow model, across layouts.
func TestQuickArrayShadow(t *testing.T) {
	arr, done := buildArray(t, "hash", 3, 8, 8, 8, 4, 4, 4)
	defer done()
	ref := newShadow(8, 8, 8)

	norm := func(x, y uint8, n int) (int, int) {
		lo, hi := int(x)%(n+1), int(y)%(n+1)
		if lo > hi {
			lo, hi = hi, lo
		}
		return lo, hi
	}
	f := func(a1, b1, a2, b2, a3, b3 uint8, vSeed int16, writeOp bool) bool {
		// Keep magnitudes modest: summation-order differences at extreme
		// float64 magnitudes would test IEEE rounding, not the Array.
		v := float64(vSeed) / 16
		l1, h1 := norm(a1, b1, 8)
		l2, h2 := norm(a2, b2, 8)
		l3, h3 := norm(a3, b3, 8)
		dom := core.NewDomain(l1, h1, l2, h2, l3, h3)
		if writeOp {
			sub := make([]float64, dom.Size())
			for i := range sub {
				sub[i] = v + float64(i)
			}
			if err := arr.Write(bg, sub, dom); err != nil {
				t.Logf("write %v: %v", dom, err)
				return false
			}
			ref.write(sub, dom)
			return true
		}
		got := make([]float64, dom.Size())
		if err := arr.Read(bg, got, dom); err != nil {
			t.Logf("read %v: %v", dom, err)
			return false
		}
		want := ref.read(dom)
		for i := range want {
			if got[i] != want[i] {
				t.Logf("dom %v element %d: got %v want %v", dom, i, got[i], want[i])
				return false
			}
		}
		s, err := arr.Sum(bg, dom)
		if err != nil {
			return false
		}
		return math.Abs(s-ref.sum(dom)) <= 1e-6*(1+math.Abs(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
