// Package exp implements the experiment suite (`oppbench -list`): one
// experiment per claim of the paper, each producing a table. The paper
// itself contains no tables or figures (it is an ideas paper), so these
// experiments are the quantitative reproduction of its qualitative
// claims; cmd/oppbench prints them. Times, rates and speed-ups in a
// table are facts about the host and are only printed; the columns a
// table marks with a rule are properties of the code, and
// TestAllExperimentsRun holds them to testdata/pin.txt.
package exp

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
	"unicode/utf8"

	"oopp/internal/metrics"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// Config controls experiment scale.
type Config struct {
	// Quick shrinks sweeps and iteration counts for CI-speed runs.
	Quick bool
}

// iters picks an iteration count by mode.
func (c Config) iters(quick, full int) int {
	if c.Quick {
		return quick
	}
	return full
}

// Table is one experiment's rendered result.
type Table struct {
	ID      string
	Title   string
	Claim   string // the paper claim under test, with its section
	Columns []string
	Rows    [][]string
	Notes   []string

	// pinned names the columns whose cells the code determines, and the
	// rule each is held to against testdata/pin.txt. A column not named
	// here is measured on the host and never compared.
	pinned map[string]rule
}

// rule is how a pinned column's cells compare with the pin.
type rule int

const (
	// label names the row.
	label rule = iota + 1
	// exact is a count — msgs, pages, sheds, disks hit — equal to the
	// printed digit.
	exact
	// kbytes is KB handed to the transport: within 0.1, because frame
	// headers carry request ids as varints, which grow a byte when an
	// experiment measures a loop again (E13's chain does, up to twice).
	kbytes
	// ceiling is allocs/op: no whole allocation more than pinned. The
	// fraction is warm-up and pool refills after a GC, spread over the
	// loop. Not compared under -race, whose instrumentation allocates.
	ceiling
)

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Note appends a free-form note line.
func (t *Table) Note(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Render prints the table in aligned plain text.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	fmt.Fprintf(w, "claim: %s\n", t.Claim)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if w := utf8.RuneCountInString(cell); i < len(widths) && w > widths[i] {
				widths[i] = w
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func pad(s string, w int) string {
	n := utf8.RuneCountInString(s)
	if n >= w {
		return s
	}
	return s + strings.Repeat(" ", w-n)
}

// Runner produces one experiment table.
type Runner func(cfg Config) (*Table, error)

// Experiment pairs an id with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   Runner
}

// Experiments lists the full suite in order.
var Experiments = []Experiment{
	{"E1", "Remote method execution vs hand-written message passing", E1RMILatency},
	{"E2", "Element-wise remote access vs bulk transfer", E2ElementVsBulk},
	{"E3", "Sequential loop vs compiler-split loop over N devices", E3SplitLoop},
	{"E4", "Move data to computation vs move computation to data", E4MoveDataVsCompute},
	{"E5", "Parallel FFT scaling with worker processes", E5ParallelFFT},
	{"E6", "OO-process FFT vs message-passing FFT", E6FFTvsMP},
	{"E7", "PageMap layout determines I/O parallelism", E7PageMapLayouts},
	{"E8", "Multiple Array clients deployed in parallel", E8MultiClient},
	{"E9", "Barrier cost vs process group size", E9Barrier},
	{"E10", "Persistent processes: passivation and activation", E10Persistence},
	{"E11", "Deep copy vs remote dereference in SetGroup", E11DeepCopy},
	{"E12", "Collective broadcast and reduce vs sequential member calls", E12Collective},
	{"E13", "Owner-computes kernels vs client-side array math", E13OwnerComputes},
	{"E14", "Serving tier: admission control and graceful saturation", E14ServingTier},
	{"E15", "Replicated pages: write fan-out cost and failover recovery", E15Replication},
	{"E16", "Elastic cluster: join, load-aware rebalance, and machine drain", E16Elasticity},
	{"E17", "Tracing overhead: untraced, unsampled, and sampled calls", E17Tracing},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// ---- shared helpers -------------------------------------------------------

// classEcho is a minimal server class used by the latency and barrier
// experiments: it returns its payload.
const classEcho = "exp.Echo"

type echoObj struct{}

// bg is the neutral context used by experiment-harness call sites: each
// experiment is a top-level entry point with no caller context.
var bg = context.Background()

func init() {
	rmi.RegisterClass(classEcho, func(env *rmi.Env, args *wire.Decoder) (*echoObj, error) {
		return &echoObj{}, nil
	}).
		Method("echo", func(obj *echoObj, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutBytes(args.Bytes())
			return args.Err()
		}).
		Method("noop", func(obj *echoObj, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			return nil
		}).
		Method("one", func(obj *echoObj, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			// The unit of the counting monoid: reducing "one" over a
			// collection counts its live members (E12's reduce lane).
			reply.PutInt(1)
			return nil
		})
}

// sample is what one operation of a measured loop cost: wall time, heap
// allocations, and the payload KB and frames handed to the transport
// anywhere in the process — client-server and server-server alike, so
// an owner-computes path gets no credit for traffic between devices.
type sample struct {
	per      time.Duration
	allocs   float64
	kb, msgs float64
}

// over spreads a sample taken around one call that ran n operations.
func (s sample) over(n int) sample {
	f := float64(n)
	return sample{s.per / time.Duration(n), s.allocs / f, s.kb / f, s.msgs / f}
}

// measure runs op warm times unmeasured, then iters times, and returns
// the cost of one of those. The clock is the innermost reading: the
// memory statistics stop the world, so they are taken outside it.
func measure(warm, iters int, op func() error) (sample, error) {
	for i := 0; i < warm; i++ {
		if err := op(); err != nil {
			return sample{}, err
		}
	}
	var m0, m1 runtime.MemStats
	sent := metrics.Default.Snapshot()
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := op(); err != nil {
			return sample{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	sent = metrics.Default.Snapshot().Sub(sent)
	return sample{elapsed, float64(m1.Mallocs - m0.Mallocs), float64(sent.BytesSent) / 1024,
		float64(sent.MessagesSent)}.over(iters), nil
}

// msPrec formats a duration in milliseconds with 3 decimals.
func msPrec(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

// usPrec formats a duration in microseconds with 1 decimal.
func usPrec(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Nanoseconds())/1e3)
}

// machineList returns [0, 1, ..., n-1] modulo m machines.
func machineList(n, m int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % m
	}
	return out
}

// fillRandom fills a complex slice deterministically.
func fillRandom(x []complex128, seed uint64) {
	s := seed
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		re := float64(int64(s>>11))/float64(1<<52) - 1
		s = s*6364136223846793005 + 1442695040888963407
		im := float64(int64(s>>11))/float64(1<<52) - 1
		x[i] = complex(re, im)
	}
}
