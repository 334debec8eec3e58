package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"oopp/internal/fft"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmokeEmitsDeclaredMetrics runs every gated workload at smoke scale,
// untraced and traced, the way the driver does, and holds what comes out to
// the declared lists: every name exactly once, every value finite, nothing
// undeclared. An untraced run reports every end-to-end metric and, of the
// per-layer ones, the times its quotients were made of.
func TestSmokeEmitsDeclaredMetrics(t *testing.T) {
	layerDecl := map[string]bool{}
	for _, d := range perLayer {
		layerDecl[d.Name] = true
	}
	for _, w := range gatedWorkloads() {
		for _, traced := range []bool{false, true} {
			cfg := config{focus: w.name, seed: 7, size: smoke, traced: traced, outDir: t.TempDir()}
			rec, err := measure(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if rec.Failed != 0 || rec.Attempted < 1 {
				t.Errorf("%s traced=%v: attempted %d failed %d: %v", w.name, traced, rec.Attempted, rec.Failed, rec.Problems)
			}
			decls, kind := endToEnd, kindE2E
			if traced {
				decls, kind = perLayer, kindLayer
			}
			seen := map[string]int{}
			for _, r := range rec.Rows {
				if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) || r.Value == 0 && r.Kind == kindE2E {
					t.Errorf("%s traced=%v: %s = %v", w.name, traced, r.Metric, r.Value)
				}
				if r.Workload != w.name {
					t.Errorf("%s traced=%v: %s is labelled %s", w.name, traced, r.Metric, r.Workload)
				}
				if !nameRE.MatchString(r.Metric) || !unitRE.MatchString(r.Unit) {
					t.Errorf("%s traced=%v: %s in %s: name or unit outside the limits", w.name, traced, r.Metric, r.Unit)
				}
				switch {
				case r.Kind == kind:
					seen[r.Metric]++
				case r.Kind != kindLayer || !layerDecl[r.Metric]:
					t.Errorf("%s traced=%v: %s row %s is not declared", w.name, traced, r.Kind, r.Metric)
				}
			}
			for _, d := range decls {
				if seen[d.Name] != 1 {
					t.Errorf("%s traced=%v: declared metric %s emitted %d times", w.name, traced, d.Name, seen[d.Name])
				}
				delete(seen, d.Name)
			}
			for name := range seen {
				t.Errorf("%s traced=%v: emitted metric %s is not declared", w.name, traced, name)
			}
			if _, err := rec.driverLine(); err != nil {
				t.Errorf("%s traced=%v: %v", w.name, traced, err)
			}
			if traced {
				for _, o := range workloads {
					if _, err := os.Stat(cfg.outDir + "/trace-" + o.name + ".json"); err != nil {
						t.Errorf("%s: no span file for %s: %v", w.name, o.name, err)
					}
				}
			}
		}
	}
}

// TestAllWorkloadsRun: a run without -workload takes every workload in
// turn, the one that is not gated too, and every end-to-end row it prints
// belongs to a gated workload.
func TestAllWorkloadsRun(t *testing.T) {
	rec, err := measure(config{seed: 7, size: smoke, outDir: t.TempDir()}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 {
		t.Errorf("failed %d: %v", rec.Failed, rec.Problems)
	}
	rows := map[string]int{}
	for _, r := range rec.Rows {
		rows[r.Workload]++
		if w := workloadNamed(r.Workload); r.Kind == kindE2E && (w == nil || !w.gated) {
			t.Errorf("end-to-end row %s of %s, which is not gated", r.Metric, r.Workload)
		}
	}
	for _, w := range workloads {
		if rows[w.name] == 0 {
			t.Errorf("%s printed nothing", w.name)
		}
	}
}

// TestDeclarationsMatchBenchmarkJSON holds BENCHMARK.json at the root of
// the repository to the lists in decls.go, so neither drifts.
func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDecl `json:"end_to_end"`
		PerLayer   []metricDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"bench"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	gated := gatedWorkloads()
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d gated in decls.go", len(doc.Workloads), len(gated))
	}
	if !reflect.DeepEqual(doc.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("command = %v", doc.Command)
	}
	for i, w := range gated {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), decls.go %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") || !nameRE.MatchString(w.name) {
			t.Errorf("workload %s: name or why outside the limits", w.name)
		}
	}
	same := func(kind string, got, want []metricDecl) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in decls.go", kind, len(got), len(want))
			return
		}
		names := map[string]bool{}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v, decls.go %+v", kind, i, g, d)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || (d.Better != lower && d.Better != higher) {
				t.Errorf("%s %s: name, unit or direction outside the limits", kind, d.Name)
			}
			if names[d.Name] {
				t.Errorf("%s %s: declared twice", kind, d.Name)
			}
			names[d.Name] = true
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 || declOf("setup_s") == nil {
		t.Errorf("%d end-to-end and %d per-layer metrics, setup_s present: %v", len(endToEnd), len(perLayer), declOf("setup_s") != nil)
	}
}

// TestSeedFixesInputs: the same seed reproduces every generated input byte
// for byte, and another seed does not.
func TestSeedFixesInputs(t *testing.T) {
	for _, w := range workloads {
		a, again, b := inputDigest(w.name, 1, smoke), inputDigest(w.name, 1, smoke), inputDigest(w.name, 2, smoke)
		if a != again {
			t.Errorf("%s: seed 1 generated different inputs twice", w.name)
		}
		if a == b {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", w.name)
		}
	}
}

// TestRateStats pins the open loop's judgement of a rate on made-up steps.
func TestRateStats(t *testing.T) {
	const step, discard = 100 * time.Millisecond, 10 * time.Millisecond
	sched := genSchedule(rngFor(1, "test"), 10e3, step)
	steady := func(lat time.Duration) []outcome {
		out := make([]outcome, len(sched))
		for i := range out {
			out[i] = outcome{lat: lat}
		}
		return out
	}
	good := &rateStats{}
	good.addStep(sched, steady(200*time.Microsecond), discard, step)
	if !good.ok() || good.offered == 0 || good.offered >= len(sched) {
		t.Errorf("steady 200µs step: ok=%v offered=%d of %d", good.ok(), good.offered, len(sched))
	}
	if got := median(good.p50); math.Abs(got-200) > 1e-9 {
		t.Errorf("p50 = %v µs, want 200", got)
	}

	slow := &rateStats{}
	slow.addStep(sched, steady(latencyLimit+time.Millisecond), discard, step)
	if slow.ok() {
		t.Error("a step answering a millisecond over the limit met it")
	}

	shedding := &rateStats{}
	out := steady(200 * time.Microsecond)
	for i := range out {
		if i%100 == 0 {
			out[i].status = outShed
		}
	}
	shedding.addStep(sched, out, discard, step)
	if shedding.ok() || shedding.shed == 0 {
		t.Errorf("a step shedding 1%% met the limit (shed %d)", shedding.shed)
	}

	// Every request answered at the end of the step: the queue only grows.
	backlog := &rateStats{}
	out = make([]outcome, len(sched))
	for i, a := range sched {
		out[i] = outcome{lat: step - a.due}
	}
	backlog.addStep(sched, out, discard, step)
	if backlog.growing != 1 || backlog.ok() {
		t.Error("a queue drained only at the end of the step was not seen to grow")
	}
}

// TestSelfTime pins self time as the span minus what its children cover.
func TestSelfTime(t *testing.T) {
	l := &spanLog{spans: []span{
		{Name: "op", ID: 1, StartNs: 0, EndNs: 100},
		{Name: "child", ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{Name: "child", ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps the first
		{Name: "child", ID: 4, Parent: 1, StartNs: 90, EndNs: 130}, // runs past its parent
	}}
	rows := l.ladder()
	self, mean, n := selfOf(rows, "op")
	if n != 1 || mean != 0.1 || math.Abs(self-0.04) > 1e-12 {
		t.Errorf("op: self %v µs mean %v µs n %d, want 0.04 0.1 1", self, mean, n)
	}
}

// TestJudge pins the verdicts of -compare.
func TestJudge(t *testing.T) {
	d := &metricDecl{Name: "x", Better: lower, Bound: 0.10}
	runs := func(vs ...float64) side { return side{values: vs, within: make([]float64, len(vs))} }
	for _, c := range []struct {
		parent, change side
		want           string
	}{
		{runs(100, 101, 99, 100), runs(100, 102, 100, 101), vWithin},
		{runs(100, 101, 99, 100), runs(120, 121, 119, 120), vWorse},
		{runs(100, 101, 99, 100), runs(80, 81, 79, 80), vBetter},
		{runs(100, 140, 60, 100), runs(100, 101, 99, 100), vUnresolved},
	} {
		if _, got := judge(d, c.parent, c.change); got != c.want {
			t.Errorf("parent %v change %v: %s, want %s", c.parent.values, c.change.values, got, c.want)
		}
	}
	up := &metricDecl{Name: "y", Better: higher, Bound: 0.10}
	if _, got := judge(up, runs(100, 100, 100), runs(80, 80, 80)); got != vWorse {
		t.Errorf("a rate falling by a fifth: %s, want %s", got, vWorse)
	}
}

// The bare references do the work they stand for.

func TestBareFFT(t *testing.T) {
	const n = 16
	x := genComplex(rngFor(1, "test"), n*n*n)
	want := append([]complex128(nil), x...)
	if err := fft.FFT3D(want, n, n, n, -1); err != nil {
		t.Fatal(err)
	}
	got := append([]complex128(nil), x...)
	f := newBareFFT(n)
	f.transform(got, false)
	if d := maxRelDiff(got, want); d > 1e-12 {
		t.Errorf("forward differs from fft.FFT3D by %g", d)
	}
	f.transform(got, true)
	if d := maxRelDiff(got, x); d > 1e-12 {
		t.Errorf("round trip differs by %g", d)
	}
}

func TestBareStream(t *testing.T) {
	const n, page = 32, 16
	data := genReals(rngFor(1, "test"), n*n*n)
	b, err := newBareStream(n, page)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.write(data); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, len(data))
	if err := b.read(out); err != nil {
		t.Fatal(err)
	}
	if !sameBits(out, data) {
		t.Error("read-back differs from what was written")
	}
}

func TestBareRelay(t *testing.T) {
	r, err := newBareRelay(callPayload)
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for i := 0; i < 100; i++ {
		if err := r.trip(i & 1); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.fan(collectionMembers); err != nil {
		t.Fatal(err)
	}
}

func TestBareSweep(t *testing.T) {
	a := genDyadics(rngFor(1, "a"), 4096)
	b := genDyadics(rngFor(1, "b"), 4096)
	x := append([]float64(nil), a...)
	one, two := bareSweep(x, b, 1), bareSweep(x, b, 2)
	if one != two {
		t.Errorf("one goroutine got %v, two got %v", one, two)
	}
	for i := range x {
		if x[i] != a[i] {
			t.Fatalf("x[%d] = %v after a sweep, was %v", i, x[i], a[i])
		}
	}
}

// TestOverBare pins the end-to-end quotient: per round, then the median of
// each slice.
func TestOverBare(t *testing.T) {
	got := overBare([]float64{2, 4, 9, 30}, []float64{1, 2, 3, 10}, []int{3, 4})
	if !reflect.DeepEqual(got, []float64{2, 3}) {
		t.Errorf("overBare = %v, want [2 3]", got)
	}
}
