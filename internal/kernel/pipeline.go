package kernel

import (
	"fmt"
	"sync"
)

// StageKind selects which registry a pipeline stage's name resolves in.
type StageKind int

const (
	// StageMap applies a registered map kernel in place.
	StageMap StageKind = iota
	// StageBinary applies a registered two-operand kernel; the second
	// operand row is a peer device's, pulled or read in place, per region.
	StageBinary
	// StageReduce folds a registered reduction kernel over the region's
	// values *as they stand at this point of the chain* and reports a
	// (count, accumulator) partial per device.
	StageReduce
	// StageBinaryReduce folds a registered two-operand reduction kernel
	// over the region's values and the co-indexed peer operand (the dot
	// product shape): it consumes one peer operand like StageBinary and
	// reports a partial like StageReduce, and like StageReduce it never
	// writes.
	StageBinaryReduce
)

func (k StageKind) String() string {
	switch k {
	case StageMap:
		return "map"
	case StageBinary:
		return "binary"
	case StageReduce:
		return "reduce"
	case StageBinaryReduce:
		return "binary reduce"
	default:
		return fmt.Sprintf("StageKind(%d)", int(k))
	}
}

// Stage names one step of a fused pipeline: a kind and the kernel name
// it resolves to (in that kind's registry).
type Stage struct {
	Kind StageKind
	Name string
}

// MapStage, BinaryStage, ReduceStage and BinaryReduceStage are the Stage
// constructors.
func MapStage(name string) Stage          { return Stage{Kind: StageMap, Name: name} }
func BinaryStage(name string) Stage       { return Stage{Kind: StageBinary, Name: name} }
func ReduceStage(name string) Stage       { return Stage{Kind: StageReduce, Name: name} }
func BinaryReduceStage(name string) Stage { return Stage{Kind: StageBinaryReduce, Name: name} }

// Pipeline is a stage chain by name: what RegisterPipeline stores and a
// caller spells. Resolve turns it, with one parameter vector per stage,
// into the Chain that runs.
type Pipeline struct {
	Stages []Stage
}

// Resolve resolves every stage with its parameter vector — params[i]
// belongs to Stages[i], and there must be exactly one per stage.
func (p Pipeline) Resolve(params [][]float64) (Chain, error) {
	if len(params) != len(p.Stages) {
		return nil, fmt.Errorf("kernel: chain has %d stages, got %d parameter vectors", len(p.Stages), len(params))
	}
	c := make(Chain, len(p.Stages))
	for i, s := range p.Stages {
		var err error
		if c[i], err = Resolve(s, params[i]); err != nil {
			return nil, fmt.Errorf("kernel: stage %d: %w", i, err)
		}
	}
	return c, nil
}

// Chain is the one shape every array collective travels in, from the
// client's Apply to the device's row walk: an ordered chain of resolved
// stages executed device-side as ONE page pass — each page region is
// entered once and every stage applied to it in order, in place — over
// one batched RMI per device. A one-stage chain is
// Apply/Reduce/ApplyBinary/ReduceBinary; a longer one is a fused
// pipeline, where the equivalent sequence of one-stage calls costs one
// RMI and one page pass per stage.
//
// A chain crosses the wire as (kind, kernel name, parameters) per stage
// and the device resolves each stage again in its kind's registry, so a
// chain can never run a kernel that only one side of the wire knows.
type Chain []ResolvedStage

// Mutates reports whether the chain writes pages back (it has at least
// one map or binary stage). A chain of reductions only is read-only and
// never stores.
func (c Chain) Mutates() bool {
	for i := range c {
		if c[i].Width() == 0 {
			return true
		}
	}
	return false
}

// Operands counts the two-operand stages (binary and binary-reduce) —
// the number of peer operands each region of a batch carries.
func (c Chain) Operands() int {
	n := 0
	for i := range c {
		if c[i].Operand() {
			n++
		}
	}
	return n
}

// Width is the chain's reduce-stage accumulators side by side, in floats.
func (c Chain) Width() int {
	w := 0
	for i := range c {
		w += c[i].Width()
	}
	return w
}

// Overwrites reports whether the chain's first stage assigns every
// element without reading it, so a region covering a whole page needs no
// load: every later stage reads what earlier stages wrote.
func (c Chain) Overwrites() bool {
	return c[0].Kind == StageMap && c[0].Map.Overwrites
}

// Identity returns one partial per reduce stage, in stage order: no
// elements, and the kernel's identity — what a fold starts from, and
// what a stage that folded nothing reports.
func (c Chain) Identity() []Partial {
	var out []Partial
	slab := make([]float64, c.Width())
	for i := range c {
		if w := c[i].Width(); w > 0 {
			acc := slab[:w:w]
			slab = slab[w:]
			c[i].Init(acc)
			out = append(out, Partial{Acc: acc})
		}
	}
	return out
}

// ResolvedStage is a stage resolved in this process's registry, with its
// parameter vector. Exactly one of Map/Bin/Red/BinRed is live, selected
// by Kind.
type ResolvedStage struct {
	Stage
	Params []float64
	Map    Map
	Bin    Binary
	Red    Reduce
	BinRed BinaryReduce
}

// Resolve is the one resolve of a stage: its kernel found in its kind's
// registry and the parameter vector checked against the kernel's arity —
// on the client before a call is issued and on the device before a page
// is touched, so a missing parameter is an error, never a device panic.
func Resolve(s Stage, params []float64) (ResolvedStage, error) {
	r, arity, err := find(s)
	if err == nil {
		err = CheckParams(s.Name, arity, params)
	}
	r.Params = params
	return r, err
}

// find looks a stage's kernel up in its kind's registry and reports the
// kernel's arity.
func find(s Stage) (r ResolvedStage, arity int, err error) {
	r.Stage = s
	ok := true
	mu.RLock()
	switch s.Kind {
	case StageMap:
		r.Map, ok = maps[s.Name]
		arity = r.Map.MinParams
	case StageBinary:
		r.Bin, ok = binaries[s.Name]
		arity = r.Bin.MinParams
	case StageReduce:
		r.Red, ok = reduces[s.Name]
		arity = r.Red.MinParams
	case StageBinaryReduce:
		r.BinRed, ok = binaryReduces[s.Name]
		arity = r.BinRed.MinParams
	default:
		err = fmt.Errorf("kernel: unknown stage kind %d", int(s.Kind))
	}
	mu.RUnlock()
	if !ok {
		err = fmt.Errorf("kernel: unknown %s kernel %q", s.Kind, s.Name)
	}
	return r, arity, err
}

// Operand reports whether the stage reads a second operand (binary and
// binary-reduce stages).
func (s *ResolvedStage) Operand() bool {
	return s.Kind == StageBinary || s.Kind == StageBinaryReduce
}

// Width is a reduce stage's accumulator width in floats; a stage that
// writes has none.
func (s *ResolvedStage) Width() int {
	switch s.Kind {
	case StageReduce:
		return s.Red.Width
	case StageBinaryReduce:
		return s.BinRed.Width
	}
	return 0
}

// Init seeds a reduce stage's accumulator with the kernel's identity.
func (s *ResolvedStage) Init(acc []float64) {
	if s.Kind == StageReduce {
		s.Red.Init(acc, s.Params)
	} else {
		s.BinRed.Init(acc, s.Params)
	}
}

// Row applies the stage to one run of the chain's values: a map or
// binary stage writes row in place, a reduce stage folds it into acc;
// peer is the co-indexed run of a two-operand stage's operand, nil
// otherwise.
func (s *ResolvedStage) Row(acc, row, peer []float64) {
	switch s.Kind {
	case StageMap:
		s.Map.Fn(row, s.Params)
	case StageBinary:
		s.Bin.Fn(row, peer, s.Params)
	case StageReduce:
		s.Red.Row(acc, row, s.Params)
	case StageBinaryReduce:
		s.BinRed.Row(acc, row, peer, s.Params)
	}
}

// Partial is what a reduce stage folded: how many elements, and the
// accumulator they were folded into. One of no elements carries only the
// identity.
type Partial struct {
	N   int64
	Acc []float64
}

// Fold merges y into x by the one fold rule of a reduce stage — a device
// folding its regions' accumulators in region order, a client its
// devices' partials in device order. A partial of no elements is never
// merged, so an identity (±Inf for minmax) cannot poison a result; the
// first partial with elements is copied over x's identity, not merged
// into it; each later one is merged with the kernel's Merge. The result
// is fixed by that order alone, however a device shared its regions
// among workers. x.Acc is Width() wide.
func (s *ResolvedStage) Fold(x *Partial, y Partial) {
	switch {
	case y.N == 0:
		return
	case x.N == 0:
		copy(x.Acc, y.Acc)
	case s.Kind == StageReduce:
		s.Red.Merge(x.Acc, y.Acc)
	default:
		s.BinRed.Merge(x.Acc, y.Acc)
	}
	x.N += y.N
}

var (
	pipeMu    sync.RWMutex
	pipelines = map[string]Pipeline{}
)

// RegisterPipeline installs a fused pipeline under name in the
// client-side name→chain table. It panics on a duplicate name, an empty
// chain, or a stage whose kernel is not yet registered in its kind's
// registry — pipelines compose only the shared vocabulary.
func RegisterPipeline(name string, p Pipeline) {
	if len(p.Stages) == 0 {
		panic(fmt.Sprintf("kernel: RegisterPipeline(%q): empty stage chain", name))
	}
	for i, s := range p.Stages {
		if _, _, err := find(s); err != nil {
			panic(fmt.Sprintf("kernel: RegisterPipeline(%q): stage %d: %v", name, i, err))
		}
	}
	pipeMu.Lock()
	defer pipeMu.Unlock()
	if _, dup := pipelines[name]; dup {
		panic(fmt.Sprintf("kernel: RegisterPipeline(%q): duplicate pipeline", name))
	}
	pipelines[name] = p
}

// LookupPipeline resolves a registered pipeline by name with one
// parameter vector per stage, so a missing stage parameter fails at the
// client before any RMI is issued.
func LookupPipeline(name string, params [][]float64) (Chain, error) {
	pipeMu.RLock()
	p, ok := pipelines[name]
	pipeMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("kernel: unknown pipeline %q", name)
	}
	c, err := p.Resolve(params)
	if err != nil {
		return nil, fmt.Errorf("kernel: pipeline %q: %w", name, err)
	}
	return c, nil
}
