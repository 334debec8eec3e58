package core_test

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/elastic"
	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/trace"
)

func init() {
	kernel.RegisterPipeline("test.engine.mixed", kernel.Pipeline{Stages: []kernel.Stage{
		kernel.MapStage(kernel.Scale),
		kernel.BinaryStage(kernel.Axpy),
		kernel.ReduceStage(kernel.Sum),
		kernel.BinaryReduceStage(kernel.Dot),
	}})
}

// chainShape is one row of the engine table: a collective of one stage
// kind (or the mixed chain), and its effect on plain slices — x is a's
// values over the domain (updated in place), y the operand's. Values
// are small integers, so every sum is exact in any fold order.
type chainShape struct {
	name             string
	mutates, reduces bool
	run              func(a, b *core.Array, dom core.Domain) ([]core.StageResult, error)
	want             func(x, y []float64) []float64
}

func one(acc []float64, n int64, err error) ([]core.StageResult, error) {
	return []core.StageResult{{Acc: acc, N: n}}, err
}

var chainShapes = []chainShape{
	{"map", true, false,
		func(a, b *core.Array, dom core.Domain) ([]core.StageResult, error) {
			return nil, a.Apply(bg, dom, kernel.Scale, 2)
		},
		func(x, y []float64) []float64 {
			for i := range x {
				x[i] *= 2
			}
			return nil
		}},
	{"reduce", false, true,
		func(a, b *core.Array, dom core.Domain) ([]core.StageResult, error) {
			return one(a.Reduce(bg, dom, kernel.Sum))
		},
		func(x, y []float64) []float64 {
			var s float64
			for _, v := range x {
				s += v
			}
			return []float64{s}
		}},
	{"binary", true, false,
		func(a, b *core.Array, dom core.Domain) ([]core.StageResult, error) {
			return nil, a.ApplyBinary(bg, dom, kernel.Axpy, b, 3)
		},
		func(x, y []float64) []float64 {
			for i := range x {
				x[i] += 3 * y[i]
			}
			return nil
		}},
	{"binary-reduce", false, true,
		func(a, b *core.Array, dom core.Domain) ([]core.StageResult, error) {
			return one(a.ReduceBinary(bg, dom, kernel.Dot, b))
		},
		func(x, y []float64) []float64 {
			var s float64
			for i := range x {
				s += x[i] * y[i]
			}
			return []float64{s}
		}},
	{"mixed chain", true, true,
		func(a, b *core.Array, dom core.Domain) ([]core.StageResult, error) {
			return a.ApplyPipeline(bg, dom, "test.engine.mixed", []*core.Array{b, b}, []float64{2}, []float64{3}, nil, nil)
		},
		func(x, y []float64) []float64 {
			var s, d float64
			for i := range x {
				x[i] = 2*x[i] + 3*y[i]
				s += x[i]
				d += x[i] * y[i]
			}
			return []float64{s, d}
		}},
}

const engN, engn = 8, 4 // 2x2x2 pages of 4x4x4

var engDom = core.NewDomain(1, 8, 0, 8, 2, 7) // partial pages on two axes

// engineRig is one cluster holding the array under test (k replicas,
// roundrobin over aOn) and its operand (unreplicated, blocked over bOn),
// both seeded, plus the shadow of a.
type engineRig struct {
	cl   *cluster.Cluster
	a, b *core.Array
	ref  *shadow
	y    []float64 // operand values over engDom
}

func newEngineRig(t *testing.T, machines int, aOn, bOn []int, k, spare int) *engineRig {
	t.Helper()
	cl, err := cluster.NewLocal(machines, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { cl.Shutdown() })
	grid := engN / engn
	mk := func(layout, name string, on []int, k, spare int) *core.Array {
		var pm core.PageMap
		pm, err := core.NewPageMap(layout, grid, grid, grid, len(on))
		if err == nil && k > 1 {
			pm, err = core.NewReplicatedMap(pm, k)
		}
		if err != nil {
			t.Fatalf("pagemap: %v", err)
		}
		storage, err := core.CreateBlockStorage(bg, cl.Client(), on, name, pm.PagesPerDevice()+spare, engn, engn, engn, pagedev.DiskPrivate)
		if err != nil {
			t.Fatalf("storage: %v", err)
		}
		arr, err := core.NewArray(bg, storage, pm, engN, engN, engN, engn, engn, engn)
		if err != nil {
			t.Fatalf("array: %v", err)
		}
		return arr
	}
	r := &engineRig{cl: cl, a: mk("roundrobin", "ea", aOn, k, spare), b: mk("blocked", "eb", bOn, 1, 0), ref: newShadow(engN, engN, engN)}
	full := core.Box(engN, engN, engN)
	vb := make([]float64, full.Size())
	for i := range vb {
		r.ref.data[i] = float64(i%13 - 6)
		vb[i] = float64(i%7 - 3)
	}
	if err := r.a.Write(bg, r.ref.data, full); err != nil {
		t.Fatal(err)
	}
	if err := r.b.Write(bg, vb, full); err != nil {
		t.Fatal(err)
	}
	bref := newShadow(engN, engN, engN)
	copy(bref.data, vb)
	r.y = bref.read(engDom)
	return r
}

// check advances the shadow by the shape's effect and compares: every
// reduce result exact with N counting each element once, and — read
// twice, so replica rotation visits every bank — every element of a
// transformed exactly once inside the domain and untouched outside it.
func (r *engineRig) check(t *testing.T, sh chainShape, got []core.StageResult) {
	t.Helper()
	x := r.ref.read(engDom)
	want := sh.want(x, r.y)
	r.ref.write(x, engDom)
	if len(got) != len(want) {
		t.Fatalf("%d reduce results, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].N != int64(engDom.Size()) || got[i].Acc[0] != w {
			t.Errorf("reduce %d = %v over %d elements, want %v over %d", i, got[i].Acc, got[i].N, w, engDom.Size())
		}
	}
	full := core.Box(engN, engN, engN)
	back := make([]float64, full.Size())
	for pass := 0; pass < 2; pass++ {
		if err := r.a.Read(bg, back, full); err != nil {
			t.Fatal(err)
		}
		for i := range back {
			if back[i] != r.ref.data[i] {
				t.Fatalf("read %d: element %d = %v, want %v (a stage applied zero or two times?)", pass, i, back[i], r.ref.data[i])
			}
		}
	}
}

// fencedBatches reports how many applyPipelineK batches machine m has
// refused at the migration fence, read off the debug plane.
func fencedBatches(t *testing.T, cl *cluster.Cluster, m int) int64 {
	t.Helper()
	buf, err := cl.Client().Debug(bg, m)
	if err != nil {
		t.Fatalf("debug pull: %v", err)
	}
	var snap trace.Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, ms := range snap.Methods {
		if ms.Name == pagedev.ClassArrayPageDevice+".applyPipelineK" {
			return ms.Fenced
		}
	}
	return 0
}

// TestChainShapesAcrossScenarios is the engine's one table: every stage
// kind and a mixed chain, each through plain, replicated, fenced
// mid-migration and machine-down operation — all of them the same
// applyPipelineK batches through the same client loop.
func TestChainShapesAcrossScenarios(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, sh chainShape)
	}{
		{"k=1", func(t *testing.T, sh chainShape) {
			r := newEngineRig(t, 3, []int{0, 1, 2}, []int{0, 1, 2}, 1, 0)
			got, err := sh.run(r.a, r.b, engDom)
			if err != nil {
				t.Fatal(err)
			}
			r.check(t, sh, got)
		}},
		{"k=2 replicated", func(t *testing.T, sh chainShape) {
			r := newEngineRig(t, 3, []int{0, 1, 2}, []int{0, 1, 2}, 2, 0)
			got, err := sh.run(r.a, r.b, engDom)
			if err != nil {
				t.Fatal(err)
			}
			r.check(t, sh, got)
		}},
		// Every page of device 0 is fenced before the collective starts,
		// so its batch there is refused whole; the collective parks, the
		// migration moves the pages to device 1 and flips the map, and
		// the refused batch replays at the new addresses — each page
		// copy sees each mutating stage exactly once. Read-only chains
		// are never fenced and do not wait.
		{"fenced mid-migration", func(t *testing.T, sh chainShape) {
			r := newEngineRig(t, 2, []int{0, 1}, []int{0, 1}, 1, 4)
			var held []int
			grid := engN / engn
			for p := 0; p < grid*grid*grid; p++ {
				if addr := r.a.Map().Locate(p/(grid*grid), p/grid%grid, p%grid); addr.Device == 0 {
					held = append(held, addr.Index)
				}
			}
			if err := r.a.Storage().Device(0).FencePages(bg, held); err != nil {
				t.Fatal(err)
			}
			type outcome struct {
				res []core.StageResult
				err error
			}
			done := make(chan outcome, 1)
			go func() {
				res, err := sh.run(r.a, r.b, engDom)
				done <- outcome{res, err}
			}()
			if sh.mutates {
				deadline := time.Now().Add(10 * time.Second)
				for fencedBatches(t, r.cl, 0) == 0 {
					if time.Now().After(deadline) {
						t.Fatal("device 0 never refused the batch")
					}
					time.Sleep(time.Millisecond)
				}
			}
			rep, err := r.a.MigratePages(bg, []elastic.Move{{From: 0, To: 1, Pages: len(held)}})
			if err != nil || rep.Moved != len(held) {
				t.Fatalf("migrate: %+v, %v", rep, err)
			}
			out := <-done
			if out.err != nil {
				t.Fatalf("collective across the flip: %v", out.err)
			}
			r.check(t, sh, out.res)
		}},
		// Machine 2 dies with no failure detector running, so the first
		// fan-out finds out at call time. A mutate-only chain degrades
		// (the surviving replica took the write), a reduce-only chain
		// retries on the survivors, and a chain that does both returns
		// the failure. The operand lives on machines that stay up.
		{"one machine down", func(t *testing.T, sh chainShape) {
			r := newEngineRig(t, 4, []int{0, 1, 2}, []int{0, 1, 3}, 2, 0)
			r.cl.Machine(2).Server().Close()
			got, err := sh.run(r.a, r.b, engDom)
			if sh.mutates && sh.reduces {
				if !errors.Is(err, rmi.ErrMachineDown) {
					t.Fatalf("mutate+reduce chain with a machine down: got %v, want ErrMachineDown", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if sh.mutates && r.a.DegradedWrites() == 0 {
				t.Error("degraded replica writes not counted")
			}
			r.check(t, sh, got)
		}},
	}
	for _, sh := range chainShapes {
		for _, sc := range scenarios {
			t.Run(sh.name+"/"+sc.name, func(t *testing.T) { sc.run(t, sh) })
		}
	}
}
