package main

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/metrics"
	"oopp/internal/rmi"
	"oopp/internal/transport"
)

var bg = context.Background()

// size selects how large a workload's inputs and window are.
type size int

const (
	// smoke is the test scale: every code path, well under a second.
	smoke size = iota
	// short is the scale of the workloads that run beside the focus in a
	// traced run, for their per-layer numbers: small arrays and windows of
	// about a second.
	short
	// full is the scale the end-to-end metrics are taken at: the sizes of
	// ISSUE 12, over the window the caller grants.
	full
)

func (s size) String() string { return [...]string{"smoke", "short", "full"}[s] }

// plan is what a workload is asked to do in one pass.
type plan struct {
	size   size
	seed   uint64
	traced bool
	// repeatSetup makes set-up run several times, the median being
	// setup_s; only the focus workload repeats it.
	repeatSetup bool
}

// pass is one workload, set up and warmed up. The measured window is
// handed to it in slices, the passes of a traced run taking turns slice by
// slice. A slice is one of the window's segments: a reported value is the
// median of the per-slice values.
//
// Inside a slice a workload works in rounds. A round times, one after the
// other, the workload's operation, its variant, and the bare reference of
// each: the same work done with sockets, channels, copies and plain loops
// only (bare.go). The box this runs on — two virtual processors of a shared
// host, a last-level cache shared with strangers — changes speed by a third
// or more for seconds or minutes at a time, and by a different amount for
// every kind of work, so no time measured on it repeats from run to run.
// The time of an operation divided by the time of its bare reference in
// the same round does: op_x_bare and alt_x_bare, the end-to-end metrics.
type pass interface {
	// slice measures for about d, and at least one unit of everything.
	slice(d time.Duration) error
	// finish reduces the samples, checks the outputs outside the timed
	// slices, takes a traced pass's per-layer numbers and tears down.
	finish() (*report, error)
}

// rounds is the number of slices a pass's window is split into.
const rounds = 12

// Stat is one reported number: the median of the per-segment values,
// their interquartile range, and the number of samples underneath.
type Stat struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	IQR   float64   `json:"iqr"`
	N     int       `json:"n"`
	Segs  []float64 `json:"segs,omitempty"` // the per-segment values, in time order
}

// report collects what one pass of one workload produced.
type report struct {
	e2e       map[string]Stat
	layer     map[string]Stat
	attempted int64
	failed    int64
	problems  []string // correctness checks that did not hold
	spans     *spanLog
}

func newReport(traced bool) *report {
	r := &report{e2e: map[string]Stat{}, layer: map[string]Stat{}}
	if traced {
		r.spans = &spanLog{}
	}
	return r
}

// check counts one correctness check into attempted/failed.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// ops counts n operations of a timed window, bad of which failed.
func (r *report) ops(n, bad int) {
	r.attempted += int64(n)
	r.failed += int64(bad)
}

func (r *report) setE2E(name, unit string, segs []float64, n int) {
	r.e2e[name] = summarize(unit, segs, n)
}

func (r *report) setLayer(name, unit string, segs []float64, n int) {
	r.layer[name] = summarize(unit, segs, n)
}

func (r *report) setLayer1(name, unit string, v float64) {
	r.layer[name] = Stat{Value: v, Unit: unit, N: 1}
}

// summarize reduces per-segment values to a Stat.
func summarize(unit string, segs []float64, n int) Stat {
	return Stat{Value: median(segs), Unit: unit, IQR: iqr(segs), N: n, Segs: segs}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantileSorted returns the q-quantile of an ascending slice by linear
// interpolation between order statistics.
func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func quantile(xs []float64, q float64) float64 { return quantileSorted(sorted(xs), q) }

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func iqr(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sorted(xs)
	return quantileSorted(s, 0.75) - quantileSorted(s, 0.25)
}

// minSegments is the number of segments a sample stream that did not come
// in slices is split into.
const minSegments = 5

// chunk splits samples, in order, into segs near-equal runs. A closed
// loop with one caller fills equal counts in near-equal times, so these
// are the window's equal segments.
func chunk(samples []float64, segs int) [][]float64 {
	if len(samples) < segs {
		segs = len(samples)
	}
	out := make([][]float64, 0, segs)
	for i := 0; i < segs; i++ {
		lo, hi := i*len(samples)/segs, (i+1)*len(samples)/segs
		out = append(out, samples[lo:hi])
	}
	return out
}

// perSlice applies f to each slice's run of samples; ends[k] is how many
// samples there were when slice k ended.
func perSlice(samples []float64, ends []int, f func([]float64) float64) []float64 {
	var out []float64
	lo := 0
	for _, hi := range ends {
		if hi > lo {
			out = append(out, f(samples[lo:hi]))
		}
		lo = hi
	}
	return out
}

// perSegment applies f to each of the window's segments.
func perSegment(samples []float64, f func([]float64) float64) []float64 {
	var out []float64
	for _, c := range chunk(samples, minSegments) {
		out = append(out, f(c))
	}
	return out
}

func scaleAll(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// overBare divides each round's time by the same round's bare reference
// and returns the per-slice medians of the quotients; ends[k] is how many
// rounds were done when slice k ended.
func overBare(op, bare []float64, ends []int) []float64 {
	q := make([]float64, len(op))
	for i := range op {
		q[i] = op[i] / bare[i]
	}
	return perSlice(q, ends, median)
}

// sum2 adds two per-round series.
func sum2(a, b []float64) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// rates turns per-segment times into per-segment rates work/time.
func rates(times []float64, work float64) []float64 {
	out := make([]float64, len(times))
	for i, t := range times {
		out[i] = work / t
	}
	return out
}

// loopFor calls op until d has passed and returns each call's duration in
// nanoseconds, at least min of them.
func loopFor(d time.Duration, min int, op func(i int) error) ([]float64, error) {
	samples := make([]float64, 0, 1024)
	start := time.Now()
	for i := 0; ; i++ {
		t0 := time.Now()
		if err := op(i); err != nil {
			return nil, err
		}
		t1 := time.Now()
		samples = append(samples, float64(t1.Sub(t0)))
		if i+1 >= min && t1.Sub(start) >= d {
			return samples, nil
		}
	}
}

// machines is the size of every cluster the benchmark boots.
const machines = 2

// bootCluster starts the in-process cluster every workload runs on: two
// machines joined by real TCP loopback sockets, default admission.
func bootCluster() (*cluster.Cluster, error) {
	return cluster.New(cluster.Config{Machines: machines, Transport: transport.TCP{}})
}

// setUp runs mk and returns the state with the seconds mk took. With
// repeat it runs mk several times, closing every state but the last, and
// setup_s is the median: the first run is left out (it pays the operating
// system for the heap's pages, the others reuse them), then at least five
// are timed, and a cheap set-up is timed until half a second has gone into
// it (at most 100 times) — a millisecond needs the repetitions to have a
// steady median.
func setUp[S interface{ close() }](repeat bool, mk func() (S, error)) (S, []float64, error) {
	var secs []float64
	var total float64
	for first := repeat; ; first = false {
		t0 := time.Now()
		s, err := mk()
		if err != nil {
			return s, nil, err
		}
		if !first {
			secs = append(secs, time.Since(t0).Seconds())
			total += secs[len(secs)-1]
		}
		if !repeat || len(secs) >= 100 || (len(secs) >= 5 && total >= 0.5) {
			return s, secs, nil
		}
		s.close()
		runtime.GC()
	}
}

// counterDelta measures what f adds to the runtime's process-wide
// counters and to the heap allocation count.
type counterDelta struct {
	metrics.Snapshot
	Mallocs uint64
	PauseNs uint64
}

func countersAround(f func() error) (counterDelta, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := metrics.Default.Snapshot()
	err := f()
	after := metrics.Default.Snapshot()
	runtime.ReadMemStats(&m1)
	return counterDelta{
		Snapshot: after.Sub(before),
		Mallocs:  m1.Mallocs - m0.Mallocs,
		PauseNs:  m1.PauseTotalNs - m0.PauseTotalNs,
	}, err
}

// peakRSSMB is the process's high-water resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// callDiscard makes a call and returns the reply's frame to the pool: the
// calls the benchmark times all discard their replies.
func callDiscard(c *rmi.Client, ctx context.Context, ref rmi.Ref, method string, args rmi.ArgEncoder, opts ...rmi.CallOption) error {
	d, err := c.Call(ctx, ref, method, args, opts...)
	d.Release()
	return err
}
