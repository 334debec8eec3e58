// Command bench is the repository's benchmark: five workloads on an
// in-process two-machine cluster joined by real TCP loopback sockets, each
// operation timed beside a bare reference doing the same work without the
// runtime, every output checked, every metric printed by name. See
// README.md.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's settings.
type config struct {
	focus   string  // the one workload to run; "" runs all five, one after the other
	seed    uint64  // every generated input derives from it
	seconds float64 // measured time of each workload run at full length
	traced  bool
	size    size // full, or smoke for the tests
	outDir  string
}

// row is one metric of one run. Workload is the run's focus, or, in a run
// of all five, the workload that produced the metric.
type row struct {
	Workload string `json:"workload"`
	Metric   string `json:"metric"`
	Kind     string `json:"kind"` // end_to_end or per_layer
	Stat
}

// record is one run, as -json appends it and -compare reads it.
type record struct {
	Workload   string   `json:"workload"` // the focus, or "all"
	Seed       uint64   `json:"seed"`
	Seconds    float64  `json:"seconds"`
	Traced     bool     `json:"traced"`
	Size       string   `json:"size"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Transport  string   `json:"transport"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	FailedFrac float64  `json:"failed_frac"`
	Problems   []string `json:"problems,omitempty"`
	Rows       []row    `json:"rows"`
}

func (rec *record) count(r *report) {
	rec.Attempted += r.attempted
	rec.Failed += r.failed
	rec.Problems = append(rec.Problems, r.problems...)
}

func (rec *record) add(workload, kind string, stats map[string]Stat) {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		rec.Rows = append(rec.Rows, row{workload, name, kind, stats[name]})
	}
}

const (
	kindE2E   = "end_to_end"
	kindLayer = "per_layer"
)

// window is the measured time the named workload's pass gets: the run's
// seconds, or, beside the focus of a traced run, its short window.
func (cfg config) window(w *workload) time.Duration {
	switch {
	case cfg.size == smoke:
		return 120 * time.Millisecond
	case cfg.focus != "" && cfg.focus != w.name:
		return w.cross
	}
	return time.Duration(cfg.seconds * float64(time.Second))
}

// running is one pass of a run and the slice its window is dealt in.
type running struct {
	w     *workload
	pass  pass
	slice time.Duration
}

// runPasses starts a pass of each listed workload, deals them their
// windows slice by slice in turn, and finishes them. Without a focus the
// workloads run one after the other instead, each alone in the process.
// Every window is cut to 1/divide.
func runPasses(cfg config, ws []*workload, traced bool, divide time.Duration, log io.Writer) (map[string]*report, error) {
	reports := map[string]*report{}
	groups := [][]*workload{ws}
	if cfg.focus == "" {
		groups = nil
		for _, w := range ws {
			groups = append(groups, []*workload{w})
		}
	}
	for _, group := range groups {
		var live []running
		for _, w := range group {
			isFocus := cfg.focus == "" || cfg.focus == w.name
			p := plan{size: short, seed: cfg.seed, traced: traced, repeatSetup: isFocus && !cfg.traced}
			if isFocus {
				p.size = full
			}
			if cfg.size == smoke {
				p.size = smoke
			}
			window := cfg.window(w) / divide
			fmt.Fprintf(log, "# %s: %s pass, traced=%v, window %v in %d slices\n", w.name, p.size, traced, window, rounds)
			t0 := time.Now()
			ps, err := w.start(p)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			fmt.Fprintf(log, "#   started in %v\n", time.Since(t0).Round(time.Millisecond))
			live = append(live, running{w, ps, window / rounds})
		}
		// A slice runs at least one unit of everything, so it may overrun;
		// what it overran by comes off the pass's next slice.
		spent := make([]time.Duration, len(live))
		for round := 1; round <= rounds; round++ {
			for i, l := range live {
				t0 := time.Now()
				if err := l.pass.slice(time.Duration(round)*l.slice - spent[i]); err != nil {
					return nil, fmt.Errorf("%s: %w", l.w.name, err)
				}
				spent[i] += time.Since(t0)
			}
		}
		for i, l := range live {
			t0 := time.Now()
			r, err := l.pass.finish()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", l.w.name, err)
			}
			reports[l.w.name] = r
			fmt.Fprintf(log, "# %s: measured %v, finished in %v\n", l.w.name, spent[i].Round(time.Millisecond), time.Since(t0).Round(time.Millisecond))
		}
	}
	return reports, nil
}

// measure runs what cfg asks for and returns the run's record.
func measure(cfg config, log io.Writer) (*record, error) {
	rec := &record{Workload: cfg.focus, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.traced,
		Size: cfg.size.String(), GoMaxProcs: runtime.GOMAXPROCS(0), Transport: "tcp loopback (127.0.0.1), no modeled link"}
	if cfg.focus == "" {
		rec.Workload = "all"
	}
	label := func(w *workload) string {
		if cfg.focus == "" {
			return w.name
		}
		return cfg.focus
	}
	var all, focus []*workload
	for i := range workloads {
		all = append(all, &workloads[i])
		if cfg.focus == "" || cfg.focus == workloads[i].name {
			focus = append(focus, &workloads[i])
		}
	}
	if !cfg.traced {
		// Tracing off: the focus alone in the process for the whole window,
		// or every workload in turn. A workload's per-layer rows here are
		// the times its end-to-end quotients were made of.
		reports, err := runPasses(cfg, focus, false, 1, log)
		if err != nil {
			return nil, err
		}
		for _, w := range focus {
			r := reports[w.name]
			rec.count(r)
			rec.add(w.name, kindE2E, r.e2e)
			rec.add(w.name, kindLayer, r.layer)
		}
		rec.close()
		return rec, nil
	}

	// A traced run: the layers beneath the workloads on their own, then
	// the focus at a third of its window and the others at a third of their
	// short ones, all traced and taking turns. The focus runs at that
	// length untraced first, and the difference is what tracing costs.
	fmt.Fprintf(log, "# layers: wire, bufpool, transport, kernel, disk on their own\n")
	lr, err := runLayers(cfg.size, cfg.seed)
	if err != nil {
		return nil, fmt.Errorf("layers: %w", err)
	}
	layers := lr.layer
	var base map[string]*report
	rt, err := countersAround(func() (err error) { base, err = runPasses(cfg, focus, false, 3, log); return })
	if err != nil {
		return nil, err
	}
	var baseOps int64
	for _, b := range base {
		baseOps += b.attempted
	}
	reports, err := runPasses(cfg, all, true, 3, log)
	if err != nil {
		return nil, err
	}
	for _, w := range all {
		r := reports[w.name]
		rec.count(r)
		if b := base[w.name]; b != nil {
			rec.count(b)
			if was, ok := b.e2e[primary]; ok {
				r.setLayer1("trace.overhead_frac", "ratio", r.e2e[primary].Value/was.Value-1)
			}
			r.setLayer1("trace.spans_captured", "count", float64(r.spans.program))
			r.setLayer1("rt.allocs_per_op", "count", float64(rt.Mallocs)/float64(max(baseOps, 1)))
			r.setLayer1("rt.gc_pause_ms", "ms", float64(rt.PauseNs)/1e6)
			r.setLayer1("rt.peak_rss_MB", "MB", peakRSSMB())
		}
		derive(r, layers)
		rec.add(label(w), kindLayer, r.layer)
		if err := r.spans.write(cfg.outDir, w.name, r.layer); err != nil {
			return nil, err
		}
	}
	layers["transport.rtt_over_calib"] = Stat{Value: layers["transport.tcp_rtt_us"].Value / layers["calib.tcp_rtt_us"].Value, Unit: "ratio", N: 1}
	if cfg.focus == "" {
		rec.add("layers", kindLayer, layers)
	} else {
		rec.add(cfg.focus, kindLayer, layers)
	}
	rec.close()
	return rec, nil
}

func (rec *record) close() {
	if rec.Attempted > 0 {
		rec.FailedFrac = float64(rec.Failed) / float64(rec.Attempted)
	}
}

// derive adds the per-layer numbers that divide a traced pass's result by
// a machine-wide layer number.
func derive(r *report, layers map[string]Stat) {
	if v, ok := r.layer["rmi.call_p50_us"]; ok {
		r.setLayer1("rmi.call_overhead_us", "us", v.Value-layers["transport.tcp_rtt_us"].Value)
	}
	if v, ok := r.layer["pagedev.sweep_computed_GBps"]; ok {
		r.setLayer1("pagedev.sweep_pct_of_memcpy", "%", 100*v.Value/layers["calib.memcpy_GBps"].Value)
	}
	if v, ok := r.layer["fft.local_ms"]; ok {
		r.setLayer1("pfft.speedup_vs_local", "ratio", v.Value/r.layer["pfft.fft_ms"].Value)
	}
}

// print writes every metric of the run by name, with unit, segment IQR
// and sample count.
func (rec *record) print(w io.Writer) {
	fmt.Fprintf(w, "# run: workload=%s seed=%d seconds=%g traced=%v size=%s GOMAXPROCS=%d transport=%s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Traced, rec.Size, rec.GoMaxProcs, rec.Transport)
	fmt.Fprintf(w, "%-14s %-38s %14s %-8s %12s %9s\n", "workload", "metric", "median", "unit", "seg IQR", "n")
	for _, r := range rec.Rows {
		fmt.Fprintf(w, "%-14s %-38s %14.4f %-8s %12.4f %9d\n", r.Workload, r.Metric, r.Value, r.Unit, r.IQR, r.N)
	}
	fmt.Fprintf(w, "attempted=%d ok=%d failed=%d failed_frac=%.6f\n", rec.Attempted, rec.Attempted-rec.Failed, rec.Failed, rec.FailedFrac)
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "FAILED CHECK: %s\n", p)
	}
}

// driverLine is the last line of a run of one gated workload: the object
// the driver reads.
func (rec *record) driverLine() ([]byte, error) {
	decls, kind := endToEnd, kindE2E
	if rec.Traced {
		decls, kind = perLayer, kindLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	got := map[string]value{}
	for _, r := range rec.Rows {
		if r.Kind != kind {
			continue
		}
		if _, dup := got[r.Metric]; dup {
			return nil, fmt.Errorf("metric %s emitted twice", r.Metric)
		}
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			return nil, fmt.Errorf("metric %s is %v", r.Metric, r.Value)
		}
		got[r.Metric] = value{r.Value, r.Unit}
	}
	for _, d := range decls {
		if v, ok := got[d.Name]; !ok {
			return nil, fmt.Errorf("declared metric %s was not emitted", d.Name)
		} else if v.Unit != d.Unit {
			return nil, fmt.Errorf("metric %s has unit %s, declared %s", d.Name, v.Unit, d.Unit)
		}
	}
	if len(got) != len(decls) {
		return nil, fmt.Errorf("%d metrics emitted, %d declared", len(got), len(decls))
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rec.Failed == 0, rec.Attempted, rec.Failed, got})
}

// appendJSON appends the record as one line of the file at path.
func (rec *record) appendJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	var cfg config
	var seed int64
	var trace int
	var tracedFlag, smokeFlag, compare, declare bool
	var jsonPath string
	flag.StringVar(&cfg.focus, "workload", "", "run this workload only; empty runs all five, one after the other")
	flag.Int64Var(&seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds of each workload")
	flag.IntVar(&trace, "trace", 0, "1 for a traced run, which reports the per-layer metrics")
	flag.BoolVar(&tracedFlag, "traced", false, "same as -trace 1")
	flag.BoolVar(&smokeFlag, "smoke", false, "tiny inputs and windows, to exercise the harness")
	flag.StringVar(&jsonPath, "json", "", "append the run's record to this file, one JSON object per line")
	flag.StringVar(&cfg.outDir, "out", "", "directory for span files (default: out beside the benchmark's sources)")
	flag.BoolVar(&compare, "compare", false, "compare the runs of two -json files: bench -compare parent.json change.json")
	flag.BoolVar(&declare, "declare", false, "print BENCHMARK.json as decls.go declares it, run_seconds taken from -seconds")
	flag.Parse()
	if declare {
		os.Stdout.Write(benchmarkJSON(int(cfg.seconds)))
		return
	}
	if compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare parent.json change.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	cfg.seed = uint64(seed)
	cfg.traced = tracedFlag || trace == 1
	cfg.size = full
	if smokeFlag {
		cfg.size = smoke
	}
	if cfg.focus != "" && workloadNamed(cfg.focus) == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.focus)
		os.Exit(2)
	}
	if cfg.outDir == "" {
		cfg.outDir = "out"
		if _, err := os.Stat("bench/go.mod"); err == nil { // run from the repository root
			cfg.outDir = "bench/out"
		}
	}
	out := bufio.NewWriter(os.Stdout)
	code := 0
	// Without a focus, -traced adds a traced run after the untraced one:
	// end-to-end metrics are only ever taken with tracing off.
	passes := []bool{cfg.traced}
	if cfg.focus == "" && cfg.traced {
		passes = []bool{false, true}
	}
	for _, traced := range passes {
		cfg.traced = traced
		rec, err := measure(cfg, os.Stderr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			os.Exit(1)
		}
		rec.print(out)
		if jsonPath != "" {
			if err := rec.appendJSON(jsonPath); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				code = 1
			}
		}
		if rec.Failed > 0 {
			code = 1
		}
		if w := workloadNamed(cfg.focus); w != nil && w.gated {
			line, err := rec.driverLine()
			if err != nil {
				out.Flush()
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				os.Exit(1)
			}
			out.Write(append(line, '\n'))
		}
	}
	out.Flush()
	os.Exit(code)
}
