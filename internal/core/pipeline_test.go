package core_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/kernel"
	"oopp/internal/pagedev"
)

// Pipelines are wire identifiers registered once per process, like
// kernels and classes — registration lives in init so repeated runs
// (-count>1) don't re-register.
type testChain struct {
	name   string
	stages []kernel.Stage
	params [][]float64
	nbin   int
}

var randChains []testChain

func init() {
	kernel.RegisterPipeline("test.pipe.saxpy", kernel.Pipeline{Stages: []kernel.Stage{
		kernel.MapStage(kernel.Scale),
		kernel.BinaryStage(kernel.Axpy),
		kernel.ReduceStage(kernel.Sum),
		kernel.MapStage(kernel.AddC),
		kernel.ReduceStage(kernel.MinMax),
	}})
	kernel.RegisterPipeline("test.pipe.fill", kernel.Pipeline{Stages: []kernel.Stage{
		kernel.MapStage(kernel.Fill),
		kernel.ReduceStage(kernel.Sum),
	}})
	kernel.RegisterPipeline("test.pipe.readonly", kernel.Pipeline{Stages: []kernel.Stage{
		kernel.ReduceStage(kernel.MinMax),
		kernel.ReduceStage(kernel.SumSq),
	}})
	kernel.RegisterPipeline("test.pipe.scalesum", kernel.Pipeline{Stages: []kernel.Stage{
		kernel.MapStage(kernel.Scale),
		kernel.ReduceStage(kernel.Sum),
	}})
	// Fuzz-ish property set: random chains drawn from the builtin pool
	// with a FIXED seed, so the registered names are stable across runs
	// while still exercising arbitrary stage orders and arities.
	rng := rand.New(rand.NewSource(9))
	type pick struct {
		st     kernel.Stage
		params []float64
	}
	pool := []func() pick{
		func() pick { return pick{kernel.MapStage(kernel.Scale), []float64{rng.Float64()*3 - 1.5}} },
		func() pick { return pick{kernel.MapStage(kernel.AddC), []float64{rng.Float64()*2 - 1}} },
		func() pick { return pick{kernel.BinaryStage(kernel.Axpy), []float64{rng.Float64()*2 - 1}} },
		func() pick { return pick{kernel.BinaryStage(kernel.Mul), nil} },
		func() pick { return pick{kernel.ReduceStage(kernel.Sum), nil} },
		func() pick { return pick{kernel.ReduceStage(kernel.MinMax), nil} },
		func() pick { return pick{kernel.ReduceStage(kernel.AbsMax), nil} },
	}
	for c := 0; c < 6; c++ {
		n := 1 + rng.Intn(5)
		ch := testChain{name: fmt.Sprintf("test.pipe.rand%d", c)}
		for s := 0; s < n; s++ {
			p := pool[rng.Intn(len(pool))]()
			ch.stages = append(ch.stages, p.st)
			ch.params = append(ch.params, p.params)
			if p.st.Kind == kernel.StageBinary {
				ch.nbin++
			}
		}
		kernel.RegisterPipeline(ch.name, kernel.Pipeline{Stages: ch.stages})
		randChains = append(randChains, ch)
	}
}

// buildTriple brings up one cluster holding the fused array, the
// unfused reference array (SAME layout, so region batching, fold order
// and client-side merge order are identical — the precondition for
// bitwise agreement), and a binary-operand array on a different layout.
func buildTriple(t testing.TB, devices, N, n int) (fused, unfused, operand *core.Array, done func()) {
	t.Helper()
	cl, err := cluster.NewLocal(devices, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	grid := N / n
	machines := make([]int, devices)
	for i := range machines {
		machines[i] = i
	}
	mk := func(layout, name string) *core.Array {
		pm, err := core.NewPageMap(layout, grid, grid, grid, devices)
		if err != nil {
			t.Fatalf("pagemap: %v", err)
		}
		storage, err := core.CreateBlockStorage(bg, cl.Client(), machines, name, pm.PagesPerDevice(), n, n, n, pagedev.DiskPrivate)
		if err != nil {
			t.Fatalf("storage: %v", err)
		}
		t.Cleanup(func() { storage.Close(bg) })
		arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
		if err != nil {
			t.Fatalf("array: %v", err)
		}
		return arr
	}
	fused = mk("roundrobin", "pf")
	unfused = mk("roundrobin", "pu")
	operand = mk("blocked", "pb")
	return fused, unfused, operand, func() { cl.Shutdown() }
}

// applyUnfused issues the chain as individual Apply/ApplyBinary/Reduce
// collectives — the reference ApplyPipeline must match bitwise.
func applyUnfused(t *testing.T, a *core.Array, dom core.Domain, stages []kernel.Stage, params [][]float64, operands []*core.Array) []core.StageResult {
	t.Helper()
	var out []core.StageResult
	bi := 0
	for si, st := range stages {
		switch st.Kind {
		case kernel.StageMap:
			if err := a.Apply(bg, dom, st.Name, params[si]...); err != nil {
				t.Fatalf("stage %d apply %q: %v", si, st.Name, err)
			}
		case kernel.StageBinary:
			if err := a.ApplyBinary(bg, dom, st.Name, operands[bi], params[si]...); err != nil {
				t.Fatalf("stage %d binary %q: %v", si, st.Name, err)
			}
			bi++
		case kernel.StageReduce:
			acc, n, err := a.Reduce(bg, dom, st.Name, params[si]...)
			if err != nil {
				t.Fatalf("stage %d reduce %q: %v", si, st.Name, err)
			}
			out = append(out, core.StageResult{Stage: si, Name: st.Name, Acc: acc, N: n})
		}
	}
	return out
}

// applyOracle is the independent reference: applyUnfused runs through
// the same engine it checks, this does not. It applies the chain to
// plain slices (data is a's values, updated in place; operand the
// second array's) with the kernels' own Fn/Row, in the order the engine
// documents — pages row-major, every stage per page region row by row,
// one accumulator per page region, merged in region order into the
// owning device's partial, device partials merged in first-seen order
// — so the match is bitwise.
func applyOracle(t *testing.T, pm core.PageMap, N, n int, data, operand []float64, dom core.Domain, stages []kernel.Stage, params [][]float64) []core.StageResult {
	t.Helper()
	type partial struct {
		acc []float64
		n   int64
	}
	var devOrder []int
	accs := map[int][]partial{} // device → one partial per reduce stage
	g := N / n
	for p := 0; p < g*g*g; p++ {
		p1, p2, p3 := p/(g*g), p/g%g, p%g
		is := dom.Intersect(core.NewDomain(p1*n, (p1+1)*n, p2*n, (p2+1)*n, p3*n, (p3+1)*n))
		if is.Empty() {
			continue
		}
		dev := pm.Locate(p1, p2, p3).Device
		if _, seen := accs[dev]; !seen {
			devOrder = append(devOrder, dev)
			accs[dev] = nil
		}
		ri := 0
		for si, st := range stages {
			sp := params[si]
			var red kernel.Reduce
			var region partial // this page region's own accumulator
			if st.Kind == kernel.StageReduce {
				red, _ = kernel.LookupReduce(st.Name, sp)
				region.acc = red.NewAcc(sp)
			}
			for i := is.Lo[0]; i < is.Hi[0]; i++ {
				for j := is.Lo[1]; j < is.Hi[1]; j++ {
					off := (i*N+j)*N + is.Lo[2]
					row := data[off : off+is.Hi[2]-is.Lo[2]]
					switch st.Kind {
					case kernel.StageMap:
						k, _ := kernel.LookupMap(st.Name, sp)
						k.Fn(row, sp)
					case kernel.StageBinary:
						k, _ := kernel.LookupBinary(st.Name, sp)
						k.Fn(row, operand[off:off+len(row)], sp)
					case kernel.StageReduce:
						red.Row(region.acc, row, sp)
						region.n += int64(len(row))
					}
				}
			}
			if st.Kind == kernel.StageReduce {
				// The device's first region is its partial; later ones merge in.
				if ri == len(accs[dev]) {
					accs[dev] = append(accs[dev], region)
				} else {
					red.Merge(accs[dev][ri].acc, region.acc)
					accs[dev][ri].n += region.n
				}
				ri++
			}
		}
	}
	var out []core.StageResult
	ri := 0
	for si, st := range stages {
		if st.Kind != kernel.StageReduce {
			continue
		}
		red, _ := kernel.LookupReduce(st.Name, params[si])
		res := core.StageResult{Stage: si, Name: st.Name}
		for _, dev := range devOrder {
			if p := accs[dev][ri]; res.N == 0 {
				res.Acc, res.N = p.acc, p.n
			} else {
				red.Merge(res.Acc, p.acc)
				res.N += p.n
			}
		}
		out = append(out, res)
		ri++
	}
	return out
}

// checkOracle fails unless the fused results and a's elements agree
// with the plain-slice oracle BITWISE.
func checkOracle(t *testing.T, what string, got, want []core.StageResult, fused *core.Array, data []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d stage results, oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Stage != want[i].Stage || got[i].Name != want[i].Name || got[i].N != want[i].N {
			t.Fatalf("%s: result %d = {%d %q n=%d}, oracle {%d %q n=%d}", what, i,
				got[i].Stage, got[i].Name, got[i].N, want[i].Stage, want[i].Name, want[i].N)
		}
		for j := range want[i].Acc {
			if math.Float64bits(got[i].Acc[j]) != math.Float64bits(want[i].Acc[j]) {
				t.Fatalf("%s: result %d acc[%d] = %v, oracle %v", what, i, j, got[i].Acc[j], want[i].Acc[j])
			}
		}
	}
	back := make([]float64, len(data))
	if err := fused.Read(bg, back, fused.Bounds()); err != nil {
		t.Fatal(err)
	}
	for i := range back {
		if math.Float64bits(back[i]) != math.Float64bits(data[i]) {
			t.Fatalf("%s: element %d fused %v, oracle %v", what, i, back[i], data[i])
		}
	}
}

// checkAgainst fails unless fused results and elements agree with the
// unfused references BITWISE.
func checkAgainst(t *testing.T, what string, got, want []core.StageResult, fused, unfused *core.Array, full core.Domain) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d stage results, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i].Stage != want[i].Stage || got[i].Name != want[i].Name || got[i].N != want[i].N {
			t.Fatalf("%s: result %d = {%d %q n=%d}, want {%d %q n=%d}", what, i,
				got[i].Stage, got[i].Name, got[i].N, want[i].Stage, want[i].Name, want[i].N)
		}
		if len(got[i].Acc) != len(want[i].Acc) {
			t.Fatalf("%s: result %d acc width %d, want %d", what, i, len(got[i].Acc), len(want[i].Acc))
		}
		for j := range got[i].Acc {
			gb, wb := math.Float64bits(got[i].Acc[j]), math.Float64bits(want[i].Acc[j])
			if gb != wb {
				t.Fatalf("%s: result %d acc[%d] = %v (%#x), want %v (%#x)", what, i, j,
					got[i].Acc[j], gb, want[i].Acc[j], wb)
			}
		}
	}
	gf := make([]float64, full.Size())
	gu := make([]float64, full.Size())
	if err := fused.Read(bg, gf, full); err != nil {
		t.Fatal(err)
	}
	if err := unfused.Read(bg, gu, full); err != nil {
		t.Fatal(err)
	}
	for i := range gf {
		if math.Float64bits(gf[i]) != math.Float64bits(gu[i]) {
			t.Fatalf("%s: element %d fused %v, unfused %v", what, i, gf[i], gu[i])
		}
	}
}

// The headline pin: a fused map→binary→reduce→map→reduce chain agrees
// bitwise — partials and every element — with the same stages issued as
// individual collectives, over a page-straddling domain.
func TestPipelineFusedMatchesUnfused(t *testing.T) {
	const N, n = 8, 2
	af, au, b, done := buildTriple(t, 3, N, n)
	defer done()
	full := core.Box(N, N, N)
	va := make([]float64, full.Size())
	vb := make([]float64, full.Size())
	for i := range va {
		va[i] = float64(i%13) - 6
		vb[i] = float64(i%7) - 3
	}
	for _, arr := range []*core.Array{af, au} {
		if err := arr.Write(bg, va, full); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Write(bg, vb, full); err != nil {
		t.Fatal(err)
	}

	dom := core.NewDomain(1, 7, 0, 8, 2, 8) // partial pages on two axes
	stages := []kernel.Stage{
		kernel.MapStage(kernel.Scale),
		kernel.BinaryStage(kernel.Axpy),
		kernel.ReduceStage(kernel.Sum),
		kernel.MapStage(kernel.AddC),
		kernel.ReduceStage(kernel.MinMax),
	}
	params := [][]float64{{0.5}, {2}, nil, {-1.25}, nil}
	got, err := af.ApplyPipeline(bg, dom, "test.pipe.saxpy", []*core.Array{b}, params...)
	if err != nil {
		t.Fatalf("fused: %v", err)
	}
	want := applyUnfused(t, au, dom, stages, params, []*core.Array{b})
	checkAgainst(t, "saxpy", got, want, af, au, full)
	checkOracle(t, "saxpy", got, applyOracle(t, af.Map(), N, n, va, vb, dom, stages, params), af, va)
}

// The fuzz-ish property: every registered random stage chain equals
// sequential application, bitwise, on fresh data each round.
func TestPipelineRandomChainsMatchSequential(t *testing.T) {
	const N, n = 8, 2
	af, au, b, done := buildTriple(t, 3, N, n)
	defer done()
	full := core.Box(N, N, N)
	dom := core.NewDomain(0, 8, 1, 8, 0, 7)
	for ci, ch := range randChains {
		va := make([]float64, full.Size())
		vb := make([]float64, full.Size())
		for i := range va {
			va[i] = math.Sin(float64(i*(ci+3))) * 4
			vb[i] = math.Cos(float64(i+ci)) * 2
		}
		for _, arr := range []*core.Array{af, au} {
			if err := arr.Write(bg, va, full); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Write(bg, vb, full); err != nil {
			t.Fatal(err)
		}
		operands := make([]*core.Array, ch.nbin)
		for i := range operands {
			operands[i] = b
		}
		got, err := af.ApplyPipeline(bg, dom, ch.name, operands, ch.params...)
		if err != nil {
			t.Fatalf("%s: fused: %v", ch.name, err)
		}
		want := applyUnfused(t, au, dom, ch.stages, ch.params, operands)
		checkAgainst(t, ch.name, got, want, af, au, full)
		checkOracle(t, ch.name, got, applyOracle(t, af.Map(), N, n, va, vb, dom, ch.stages, ch.params), af, va)
	}
}

// The oracle again where a device shares its batch among workers: 64³ in
// 16³ pages on two devices is 32 regions and some 127k elements a batch,
// above the engine's threshold (every other test here stays below it). On
// one processor — the sequential loop — and on eight the results and every
// element match the oracle's fixed fold order bitwise, so they match each
// other: neither the worker count nor who claimed which region shows.
func TestPipelineOnWorkersMatchesOracle(t *testing.T) {
	const N, n = 64, 16
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	af, _, b, done := buildTriple(t, 2, N, n)
	defer done()
	full := core.Box(N, N, N)
	dom := core.NewDomain(0, N, 1, N, 0, N-1)
	stages := []kernel.Stage{
		kernel.MapStage(kernel.Scale),
		kernel.BinaryStage(kernel.Axpy),
		kernel.ReduceStage(kernel.Sum),
		kernel.MapStage(kernel.AddC),
		kernel.ReduceStage(kernel.MinMax),
	}
	params := [][]float64{{1.0 / 3}, {0.7}, nil, {-1.25}, nil}
	va := make([]float64, full.Size())
	vb := make([]float64, full.Size())
	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for i := range va {
			va[i] = math.Sin(float64(i)) * 4
			vb[i] = math.Cos(float64(i)) * 2
		}
		if err := af.Write(bg, va, full); err != nil {
			t.Fatal(err)
		}
		if err := b.Write(bg, vb, full); err != nil {
			t.Fatal(err)
		}
		got, err := af.ApplyPipeline(bg, dom, "test.pipe.saxpy", []*core.Array{b}, params...)
		if err != nil {
			t.Fatalf("%d processors: %v", procs, err)
		}
		checkOracle(t, fmt.Sprintf("saxpy on %d processors", procs), got, applyOracle(t, af.Map(), N, n, va, vb, dom, stages, params), af, va)
	}
}

// A pipeline whose first stage overwrites (fill) skips the page load on
// whole-page regions; partially covered pages still read-modify-write.
func TestPipelineOverwritesFirstStage(t *testing.T) {
	const N, n = 8, 4
	af, au, _, done := buildTriple(t, 2, N, n)
	defer done()
	full := core.Box(N, N, N)
	seed := make([]float64, full.Size())
	for i := range seed {
		seed[i] = float64(i)
	}
	for _, arr := range []*core.Array{af, au} {
		if err := arr.Write(bg, seed, full); err != nil {
			t.Fatal(err)
		}
	}
	stages := []kernel.Stage{kernel.MapStage(kernel.Fill), kernel.ReduceStage(kernel.Sum)}
	params := [][]float64{{3.5}, nil}
	// Whole-array: every page takes the write-only fast path.
	got, err := af.ApplyPipeline(bg, full, "test.pipe.fill", nil, params...)
	if err != nil {
		t.Fatal(err)
	}
	want := applyUnfused(t, au, full, stages, params, nil)
	checkAgainst(t, "fill-full", got, want, af, au, full)
	// Page-straddling: partial regions must preserve the untouched rest.
	dom := core.NewDomain(2, 6, 0, 8, 3, 8)
	params2 := [][]float64{{-2}, nil}
	got, err = af.ApplyPipeline(bg, dom, "test.pipe.fill", nil, params2...)
	if err != nil {
		t.Fatal(err)
	}
	want = applyUnfused(t, au, dom, stages, params2, nil)
	checkAgainst(t, "fill-partial", got, want, af, au, full)
}

// Read-only pipelines mutate nothing; empty domains fold nothing and
// report each stage's identity with N == 0 — the fused form of the
// empty-region guarantee (a zero-row reduce stage must skip,
// never poison the merge with its ±Inf identity).
func TestPipelineReadOnlyAndEmptyDomain(t *testing.T) {
	const N, n = 8, 2
	af, au, _, done := buildTriple(t, 2, N, n)
	defer done()
	full := core.Box(N, N, N)
	seed := make([]float64, full.Size())
	for i := range seed {
		seed[i] = float64(i%11) - 5
	}
	for _, arr := range []*core.Array{af, au} {
		if err := arr.Write(bg, seed, full); err != nil {
			t.Fatal(err)
		}
	}
	stages := []kernel.Stage{kernel.ReduceStage(kernel.MinMax), kernel.ReduceStage(kernel.SumSq)}
	params := [][]float64{nil, nil}
	got, err := af.ApplyPipeline(bg, full, "test.pipe.readonly", nil, params...)
	if err != nil {
		t.Fatal(err)
	}
	want := applyUnfused(t, au, full, stages, params, nil)
	checkAgainst(t, "readonly", got, want, af, au, full)

	empty := core.NewDomain(3, 3, 0, 8, 0, 8)
	got, err = af.ApplyPipeline(bg, empty, "test.pipe.readonly", nil, params...)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].N != 0 || got[1].N != 0 {
		t.Fatalf("empty domain results: %+v", got)
	}
	if !math.IsInf(got[0].Acc[0], 1) || !math.IsInf(got[0].Acc[1], -1) {
		t.Fatalf("empty minmax identity = %v", got[0].Acc)
	}
	if got[1].Acc[0] != 0 {
		t.Fatalf("empty sumsq identity = %v", got[1].Acc)
	}
	// A mutating pipeline over an empty domain is a no-op with identity
	// results, not an error.
	got, err = af.ApplyPipeline(bg, empty, "test.pipe.scalesum", nil, [][]float64{{2}, nil}...)
	if err != nil || len(got) != 1 || got[0].N != 0 || got[0].Acc[0] != 0 {
		t.Fatalf("empty mutating pipeline = %+v, %v", got, err)
	}
}

// Under a replicated map every replica executes the mutating stages
// (reads stay consistent wherever pickLive rotates), while each page's
// reduce stages fold on exactly one replica — N counts every element
// exactly once.
func TestPipelineReplicated(t *testing.T) {
	const N, n = 8, 2
	_, arr, done := buildReplicated(t, "roundrobin", 3, 2, N, N, N, n, n, n, 0)
	defer done()
	full := core.Box(N, N, N)
	seed := make([]float64, full.Size())
	for i := range seed {
		seed[i] = float64(i%9) - 4
	}
	if err := arr.Write(bg, seed, full); err != nil {
		t.Fatal(err)
	}
	dom := core.NewDomain(0, 8, 2, 8, 0, 8)
	got, err := arr.ApplyPipeline(bg, dom, "test.pipe.scalesum", nil, [][]float64{{3}, nil}...)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].N != int64(dom.Size()) {
		t.Fatalf("folded %d elements, want %d (replica double-count?)", got[0].N, dom.Size())
	}
	ref := newShadow(N, N, N)
	ref.write(seed, full)
	sub := ref.read(dom)
	wantSum := 0.0
	for i := range sub {
		sub[i] *= 3
		wantSum += sub[i]
	}
	ref.write(sub, dom)
	if math.Abs(got[0].Acc[0]-wantSum) > 1e-9*(1+math.Abs(wantSum)) {
		t.Fatalf("sum = %v, want %v", got[0].Acc[0], wantSum)
	}
	// Two reads rotate across replicas: both must see the mutation — the
	// deterministic chain kept the banks identical.
	for pass := 0; pass < 2; pass++ {
		got := make([]float64, full.Size())
		if err := arr.Read(bg, got, full); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != ref.data[i] {
				t.Fatalf("pass %d element %d = %v, want %v", pass, i, got[i], ref.data[i])
			}
		}
	}
}

// Validation fails fast, client-side: unknown names, wrong operand
// counts, wrong parameter-vector counts, missing stage parameters.
func TestPipelineValidation(t *testing.T) {
	const N, n = 8, 4
	af, _, b, done := buildTriple(t, 2, N, n)
	defer done()
	full := core.Box(N, N, N)
	if _, err := af.ApplyPipeline(bg, full, "test.pipe.unregistered", nil); err == nil {
		t.Error("unknown pipeline accepted")
	}
	// saxpy has 1 binary stage and 5 stages.
	if _, err := af.ApplyPipeline(bg, full, "test.pipe.saxpy", nil,
		[][]float64{{1}, {1}, nil, {1}, nil}...); err == nil {
		t.Error("missing operand array accepted")
	}
	if _, err := af.ApplyPipeline(bg, full, "test.pipe.saxpy", []*core.Array{b},
		[][]float64{{1}, {1}}...); err == nil {
		t.Error("wrong parameter-vector count accepted")
	}
	if _, err := af.ApplyPipeline(bg, full, "test.pipe.saxpy", []*core.Array{b},
		[][]float64{nil, {1}, nil, {1}, nil}...); err == nil {
		t.Error("missing scale parameter accepted")
	}
	// Registration rejects empty chains, unregistered stages, duplicates.
	mustPanic := func(what string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("empty chain", func() { kernel.RegisterPipeline("test.pipe.empty", kernel.Pipeline{}) })
	mustPanic("unregistered stage", func() {
		kernel.RegisterPipeline("test.pipe.badstage", kernel.Pipeline{Stages: []kernel.Stage{kernel.MapStage("no.such.kernel")}})
	})
	mustPanic("duplicate name", func() {
		kernel.RegisterPipeline("test.pipe.fill", kernel.Pipeline{Stages: []kernel.Stage{kernel.MapStage(kernel.Fill)}})
	})
}
