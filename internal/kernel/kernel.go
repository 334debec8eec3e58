package kernel

import (
	"fmt"
	"sync"
)

// Map transforms one contiguous row of elements in place. params is
// the kernel's parameter vector, shared across the whole operation and
// validated against MinParams before any page is touched (both
// client-side at issue and device-side at execution), so a missing
// parameter is a prompt error instead of a device-side panic.
// Overwrites declares that Fn assigns every element without reading
// the old values — the engine then skips the page load when a region
// covers a whole page (Fill-style kernels stay write-only).
type Map struct {
	MinParams  int
	Overwrites bool
	Fn         func(row, params []float64)
}

// Reduce folds rows into a fixed-width accumulator. Init seeds the
// accumulator (it may consult params); Row folds one contiguous row in;
// Merge combines another accumulator into acc and must be associative.
// The fold order is fixed: every page region is folded into an
// accumulator of its own (Init, then Row per run), a device folds its
// regions' accumulators in region order and the client the devices'
// partials in device order, both by ResolvedStage.Fold — the first is
// taken as it is, never merged into an identity. So a result does not
// depend on how many workers a device shared its regions among.
type Reduce struct {
	Width     int
	MinParams int
	Init      func(acc, params []float64)
	Row       func(acc, row, params []float64)
	Merge     func(acc, other []float64)
}

// Binary transforms a destination row in place given the co-indexed
// source row (dst and src have equal length and correspond element by
// element).
type Binary struct {
	MinParams int
	Fn        func(dst, src, params []float64)
}

// BinaryReduce folds co-indexed row pairs into a fixed-width
// accumulator — the two-operand reduction shape (dot products). Init,
// Row and Merge are used, and the fold ordered, exactly as Reduce's.
type BinaryReduce struct {
	Width     int
	MinParams int
	Init      func(acc, params []float64)
	Row       func(acc, a, b, params []float64)
	Merge     func(acc, other []float64)
}

// CheckParams validates a parameter vector against a kernel's declared
// arity.
func CheckParams(name string, min int, params []float64) error {
	if len(params) < min {
		return fmt.Errorf("kernel: %q wants at least %d parameter(s), got %d", name, min, len(params))
	}
	return nil
}

// NewAcc returns a freshly initialized accumulator for the reduction.
func (r Reduce) NewAcc(params []float64) []float64 {
	acc := make([]float64, r.Width)
	r.Init(acc, params)
	return acc
}

// NewAcc returns a freshly initialized accumulator for the reduction.
func (r BinaryReduce) NewAcc(params []float64) []float64 {
	acc := make([]float64, r.Width)
	r.Init(acc, params)
	return acc
}

// The four namespaces are independent: a map kernel and a reduce kernel
// may share a name without conflict.
var (
	mu            sync.RWMutex
	maps          = map[string]Map{}
	reduces       = map[string]Reduce{}
	binaries      = map[string]Binary{}
	binaryReduces = map[string]BinaryReduce{}
)

// RegisterMap installs a map kernel under name. Registering a name
// twice panics: kernel names are wire identifiers and must be stable.
func RegisterMap(name string, k Map) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := maps[name]; dup || k.Fn == nil {
		panic(fmt.Sprintf("kernel: RegisterMap(%q): duplicate or nil kernel", name))
	}
	maps[name] = k
}

// RegisterReduce installs a reduction kernel under name.
func RegisterReduce(name string, k Reduce) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := reduces[name]; dup || k.Width <= 0 || k.Init == nil || k.Row == nil || k.Merge == nil {
		panic(fmt.Sprintf("kernel: RegisterReduce(%q): duplicate or malformed kernel", name))
	}
	reduces[name] = k
}

// RegisterBinary installs a two-operand map kernel under name.
func RegisterBinary(name string, k Binary) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := binaries[name]; dup || k.Fn == nil {
		panic(fmt.Sprintf("kernel: RegisterBinary(%q): duplicate or nil kernel", name))
	}
	binaries[name] = k
}

// RegisterBinaryReduce installs a two-operand reduction kernel.
func RegisterBinaryReduce(name string, k BinaryReduce) {
	mu.Lock()
	defer mu.Unlock()
	if _, dup := binaryReduces[name]; dup || k.Width <= 0 || k.Init == nil || k.Row == nil || k.Merge == nil {
		panic(fmt.Sprintf("kernel: RegisterBinaryReduce(%q): duplicate or malformed kernel", name))
	}
	binaryReduces[name] = k
}

// LookupMap resolves a map kernel by name and validates the parameter
// vector against its declared arity: Resolve of a map stage, for a
// caller that wants the kernel itself.
func LookupMap(name string, params []float64) (Map, error) {
	r, err := Resolve(MapStage(name), params)
	return r.Map, err
}

// LookupReduce is Resolve of a reduce stage, returning its kernel.
func LookupReduce(name string, params []float64) (Reduce, error) {
	r, err := Resolve(ReduceStage(name), params)
	return r.Red, err
}

// LookupBinary is Resolve of a two-operand map stage, returning its
// kernel.
func LookupBinary(name string, params []float64) (Binary, error) {
	r, err := Resolve(BinaryStage(name), params)
	return r.Bin, err
}
