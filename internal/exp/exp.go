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

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/metrics"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// Experiment is the one declaration of a table: its header, the rules its
// pinned columns are held to, and the run that fills its rows.
type Experiment struct {
	ID      string
	Title   string
	Claim   string // the paper claim under test, with its section
	Columns []string

	// pinned names the columns whose cells the code determines, and the
	// rule each is held to against testdata/pin.txt. A column not named
	// here is measured on the host and never compared.
	pinned map[string]rule

	// run adds the table's rows and notes. What it sets up it hands to
	// x's teardown stack, and it returns at the first error.
	run func(x *run) error
}

// Experiments lists the full suite in order.
var Experiments = []Experiment{e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11, e12, e13, e14, e15, e16, e17, a1, a2}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, bool) {
	for _, e := range Experiments {
		if strings.EqualFold(e.ID, id) {
			return e, true
		}
	}
	return Experiment{}, false
}

// Run executes the experiment and returns its table. Whatever the run set
// up is torn down before Run returns, last first, on success or error.
func (e Experiment) Run() (*Table, error) {
	x := &run{Table: &Table{Experiment: e}}
	defer x.unwind(0)
	if err := e.run(x); err != nil {
		return nil, err
	}
	return x.Table, nil
}

// Table is one experiment's rendered result.
type Table struct {
	Experiment
	Rows  [][]string
	Notes []string
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

// ---- the run: a table being filled and a teardown stack ------------------

// run is one execution of an experiment: the table it fills, and the
// stack of what it set up, which Run unwinds.
type run struct {
	*Table
	undo []func()
}

// later pushes f onto the teardown stack.
func (x *run) later(f func()) { x.undo = append(x.undo, f) }

// unwind calls the stack's entries above depth n, last pushed first. A
// loop whose iterations each stand up their own world unwinds, at the
// end of each, to the depth it started from.
func (x *run) unwind(n int) {
	for len(x.undo) > n {
		f := x.undo[len(x.undo)-1]
		x.undo = x.undo[:len(x.undo)-1]
		f()
	}
}

// cluster brings up a cluster that is shut down at teardown.
func (x *run) cluster(cfg cluster.Config) (*cluster.Cluster, error) {
	cl, err := cluster.New(cfg)
	if err == nil {
		x.later(func() { cl.Shutdown() })
	}
	return cl, err
}

// array builds an N³ array of n³ pages over one device per machine of cl,
// laid out by layout (a core.NewPageMap name), every device holding spare
// page slots beyond what the map needs. The devices use their machine's
// first disk, or a private one on a cluster without disks; the storage is
// closed at teardown.
func (x *run) array(cl *cluster.Cluster, layout string, N, n, spare int) (*core.Array, error) {
	grid, devices := N/n, cl.Size()
	pm, err := core.NewPageMap(layout, grid, grid, grid, devices)
	if err != nil {
		return nil, err
	}
	onDisk := pagedev.DiskPrivate
	if len(cl.Machine(0).Disks()) > 0 {
		onDisk = 0
	}
	storage, err := core.CreateBlockStorage(bg, cl.Client(), machineList(devices, devices),
		strings.ToLower(x.ID), pm.PagesPerDevice()+spare, n, n, n, onDisk)
	if err != nil {
		return nil, err
	}
	x.later(func() { storage.Close(bg) })
	return core.NewArray(bg, storage, pm, N, N, N, n, n, n)
}

// ---- shared helpers -------------------------------------------------------

// bg is the neutral context used by experiment-harness call sites: each
// experiment is a top-level entry point with no caller context.
var bg = context.Background()

type echoObj struct{}

// echoClass is a minimal server class used by the latency and barrier
// experiments: it returns its payload.
var echoClass = rmi.RegisterClass("exp.Echo", wire.Void, func(env *rmi.Env, _ struct{}) (*echoObj, error) {
	return &echoObj{}, nil
})

var (
	echoEcho = echoClass.Declare("echo", func(obj *echoObj, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		reply.PutBytes(args.Bytes())
		return args.Err()
	})
	echoNoop = rmi.DeclareOp(echoClass, "noop", wire.Void, wire.Void, func(obj *echoObj, env *rmi.Env, _ struct{}) (struct{}, error) {
		return struct{}{}, nil
	})
	echoOne = rmi.DeclareOp(echoClass, "one", wire.Void, wire.Int, func(obj *echoObj, env *rmi.Env, _ struct{}) (int, error) {
		// The unit of the counting monoid: reducing echoOne over a
		// collection counts its live members (E12's reduce lane).
		return 1, nil
	})
)

// echo returns one synchronous echo of payload by the echoClass object
// ref. The argument encoder is built once and the reply released, as a
// steady-state caller of the pooled hot path does.
func echo(ctx context.Context, client *rmi.Client, ref rmi.Ref, payload []byte, opts ...rmi.CallOption) func() error {
	args := func(e *wire.Encoder) error {
		e.PutBytes(payload)
		return nil
	}
	return func() error {
		d, err := echoEcho.Call(ctx, client, ref, args, opts...)
		d.Release()
		return err
	}
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

// waitUntil polls cond until it holds, and fails after ten seconds.
func waitUntil(what string, cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within 10s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
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
