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

// Pipeline is the one shape every array collective travels in: an
// ordered chain of stages executed device-side as ONE page pass — each
// page region is entered once and every stage applied to it in order,
// in place — over one batched RMI per device. A one-stage chain is
// Apply/Reduce/ApplyBinary/ReduceBinary; a longer one is a fused
// pipeline, where the equivalent sequence of one-stage calls costs one
// RMI and one page pass per stage.
//
// The chain crosses the wire inline (kind, kernel name, parameters per
// stage) and the device resolves each stage in its kind's registry, so
// a chain can never name a kernel that only one side of the wire knows.
// RegisterPipeline names a chain client-side, for reuse.
type Pipeline struct {
	Stages []Stage
}

// Mutates reports whether the pipeline writes pages back (it contains
// at least one map or binary stage). A pipeline of reductions only is
// read-only and never stores.
func (p Pipeline) Mutates() bool {
	for _, s := range p.Stages {
		if s.Kind == StageMap || s.Kind == StageBinary {
			return true
		}
	}
	return false
}

// Reduces counts the reduce and binary-reduce stages — the number of
// (count, accumulator) partials each device reports per call.
func (p Pipeline) Reduces() int {
	n := 0
	for _, s := range p.Stages {
		if s.Kind == StageReduce || s.Kind == StageBinaryReduce {
			n++
		}
	}
	return n
}

// Binaries counts the two-operand stages (binary and binary-reduce) —
// the number of peer operands each region of a batch must carry.
func (p Pipeline) Binaries() int {
	n := 0
	for _, s := range p.Stages {
		if s.Kind == StageBinary || s.Kind == StageBinaryReduce {
			n++
		}
	}
	return n
}

// ResolvedStage is a stage with its kernel resolved — the executable
// form the device engine walks. Exactly one of Map/Bin/Red/BinRed is
// live, selected by Kind.
type ResolvedStage struct {
	Kind   StageKind
	Name   string
	Map    Map
	Bin    Binary
	Red    Reduce
	BinRed BinaryReduce
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
		var ok bool
		mu.RLock()
		switch s.Kind {
		case StageMap:
			_, ok = maps[s.Name]
		case StageBinary:
			_, ok = binaries[s.Name]
		case StageReduce:
			_, ok = reduces[s.Name]
		case StageBinaryReduce:
			_, ok = binaryReduces[s.Name]
		}
		mu.RUnlock()
		if !ok {
			panic(fmt.Sprintf("kernel: RegisterPipeline(%q): stage %d names unregistered %s kernel %q", name, i, s.Kind, s.Name))
		}
	}
	pipeMu.Lock()
	defer pipeMu.Unlock()
	if _, dup := pipelines[name]; dup {
		panic(fmt.Sprintf("kernel: RegisterPipeline(%q): duplicate pipeline", name))
	}
	pipelines[name] = p
}

// LookupPipeline resolves a pipeline by name and validates the
// per-stage parameter vectors against each stage kernel's declared
// arity — params[i] belongs to Stages[i] and must hold at least its
// MinParams values — so a missing stage parameter fails at the client
// before any RMI is issued (the device validates each inline stage
// again before any page is touched).
func LookupPipeline(name string, params [][]float64) (Pipeline, []ResolvedStage, error) {
	pipeMu.RLock()
	p, ok := pipelines[name]
	pipeMu.RUnlock()
	if !ok {
		return Pipeline{}, nil, fmt.Errorf("kernel: unknown pipeline %q", name)
	}
	if len(params) != len(p.Stages) {
		return Pipeline{}, nil, fmt.Errorf("kernel: pipeline %q has %d stages, got %d parameter vectors", name, len(p.Stages), len(params))
	}
	resolved := make([]ResolvedStage, len(p.Stages))
	for i, s := range p.Stages {
		rs := ResolvedStage{Kind: s.Kind, Name: s.Name}
		var err error
		switch s.Kind {
		case StageMap:
			rs.Map, err = LookupMap(s.Name, params[i])
		case StageBinary:
			rs.Bin, err = LookupBinary(s.Name, params[i])
		case StageReduce:
			rs.Red, err = LookupReduce(s.Name, params[i])
		case StageBinaryReduce:
			rs.BinRed, err = LookupBinaryReduce(s.Name, params[i])
		default:
			err = fmt.Errorf("kernel: pipeline %q stage %d has unknown kind %d", name, i, int(s.Kind))
		}
		if err != nil {
			return Pipeline{}, nil, fmt.Errorf("kernel: pipeline %q stage %d: %w", name, i, err)
		}
		resolved[i] = rs
	}
	return p, resolved, nil
}
