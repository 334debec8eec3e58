// Package kernel is the compute vocabulary of the owner-computes array
// surface: a process-global registry of named kernels that execute
// *inside the storage device processes that own the pages* (the paper's
// "moving the computation to the data", §3, promoted from a single
// hand-written method to an extensible protocol).
//
// # Registry model
//
// A kernel is identified on the wire by a stable name plus a small
// vector of float64 parameters — the whole descriptor fits in a few
// bytes, so shipping the computation costs nothing next to shipping the
// data it replaces. Both sides of a deployment register the same
// kernels at init time (exactly like rmi class registration: in a
// multi-process cluster every machine runs the same binary, so the
// registry is shared by construction); the client validates the name
// before issuing, the device resolves it again before executing.
// Registration is panic-on-duplicate — kernel names are wire
// identifiers and must be stable for the life of a deployment.
//
// The four kernel shapes live in independent namespaces: a map kernel
// and a reduce kernel may share a name without conflict. [RegisterMap],
// [RegisterReduce], [RegisterBinary] and [RegisterBinaryReduce] install
// them. [Resolve] is the one lookup: it finds a [Stage]'s kernel in its
// kind's namespace AND validates the parameter vector in one step;
// [LookupMap], [LookupReduce], [LookupBinary] and [LookupBinaryReduce]
// are Resolve for one kind, for a caller that wants the kernel itself.
//
// # Kernel shapes
//
// Four elementary shapes cover the array algebra:
//
//   - [Map]: an in-place transform of a contiguous run of elements
//     (fill, scale, user transforms via Array.Apply).
//   - [Reduce]: a fixed-width accumulator folded over runs device-side
//     (sum, minmax, Array.Reduce). Each page region folds into its own
//     accumulator; the device folds its regions' accumulators in region
//     order and the client the devices' partials in device order, both
//     by one rule, [ResolvedStage.Fold]. Merge must be associative, and
//     need be nothing more:
//     the order is fixed, so the reduction is deterministic — bitwise
//     the same however many workers a device shares its regions among.
//   - [Binary]: an in-place transform of a destination run given the
//     co-indexed source run of a peer device — pulled from it, or, when
//     the peer is on the same machine, read where it lies (axpy, copy).
//   - [BinaryReduce]: a reduction over co-indexed run pairs (dot).
//
// # One engine: the stage chain
//
// Kernels never travel alone. The unit of execution is a [Chain]: an
// ordered list of [ResolvedStage] values — a [Stage], of one [StageKind]
// per kernel shape ([StageMap], [StageBinary], [StageReduce],
// [StageBinaryReduce]), with its kernel and parameter vector — executed
// device-side as ONE page pass: each page region is entered once and
// every stage applied in order, in place ([ResolvedStage.Row] per run),
// over one batched RMI per device. The client plans with the same Chain
// value the wire carries and the device walks, and both fold its partials
// by the same rule. Array.Apply/Reduce/ApplyBinary/ReduceBinary are
// one-stage chains; a chain of k such calls costs k RMIs and k page
// passes per device, where the fused chain costs one of each
// (operator-oriented composition; see the "Kernel pipeline" chapter in
// the root package doc for client-side semantics).
//
// The chain crosses the wire INLINE — (kind, kernel name, parameters)
// per stage — and the device resolves every stage again before touching
// a page. "Both sides know every kernel" is therefore enforced per
// kernel, and a device needs no pipeline table: a [Pipeline] names a
// chain's stages, and [RegisterPipeline] / [LookupPipeline] are a
// client-side name→chain convenience (registration still panics on a
// stage whose kernel is not registered).
//
// # Parameter-arity validation
//
// Every kernel declares MinParams, the least number of float64
// parameters its function consumes. [Resolve] validates the caller's
// vector against it via [CheckParams] — client-side at issue time and
// device-side at execution time — so a forgotten parameter is a typed
// error on the calling machine, never an index-out-of-range panic
// inside a storage device. Chains validate per stage: params[i]
// belongs to Stages[i], and [Pipeline.Resolve] requires exactly one
// vector per stage (nil is fine for parameterless stages).
//
// # Row engine
//
// Kernels operate on contiguous element runs, not single elements, so
// the per-call function overhead amortizes over the run length. The
// device engine is stride-aware: when a sub-box covers whole rows of a
// page it coalesces them into longer runs — up to the full page as one
// flat []float64 slab — so a kernel's inner loop walks memory
// sequentially and auto-vectorizes. Coalescing preserves element order
// exactly, which keeps sequential folds (sum, dot) bitwise identical to
// the row-at-a-time schedule. Kernel functions must therefore accept
// runs of ANY length ≥ 1 and must not assume a run is one page row.
//
// # Builtin catalog
//
// Map kernels (row[i] op= p...):
//
//	fill   row[i] = p[0]    Overwrites: full pages skip the prior load
//	scale  row[i] *= p[0]   scale(0) zeroes; scale(1) is the identity
//	addc   row[i] += p[0]
//
// Reduce kernels (identity → accumulator):
//
//	sum     [0] → [Σv]
//	minmax  [+Inf, -Inf] → [min, max]
//	sumsq   [0] → [Σv²]   (Norm2 is its square root)
//	absmax  [0] → [max|v|]
//
// Binary kernels (dst[i] op= src[i]):
//
//	axpy  dst[i] += p[0]*src[i]
//	copy  dst[i] = src[i]
//	mul   dst[i] *= src[i]
//
// BinaryReduce kernels:
//
//	dot  [0] → [Σ a[i]*b[i]]
//
// Edge cases the engine guarantees around this catalog: reduction
// kernels never see empty sub-boxes — the device engine skips them and
// reports an element count alongside each partial, so an identity
// accumulator (+Inf for min, 0 for sum) cannot poison a combined result
// (the ArrayPage.MinMax empty-page fix, done structurally). The same
// skip applies to reduce stages inside a fused pipeline: a stage that
// folded zero rows reports N == 0 and its identity partial is never
// merged. ±Inf and NaN element values pass through map kernels
// untouched and fold by IEEE rules (math.Min/math.Max order NaN last).
package kernel
