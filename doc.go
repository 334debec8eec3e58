// Package oopp is an object-oriented parallel programming framework: a Go
// implementation of the model in which programming objects are processes
// (E. Givelberg, "Object-Oriented Parallel Programming").
//
// # Model
//
// A parallel program is a collection of persistent processes that
// communicate by executing remote methods. Constructing an object on a
// remote machine spawns a process there and yields a remote pointer
// (Ref); method calls through the pointer are client-server round trips
// whose protocol is generated from the class description (here: a typed
// registered method table plus generic invocation helpers); deleting the
// pointer terminates the process.
//
//	ctx := context.Background()
//	cl, _ := oopp.NewLocalCluster(4, 1)        // four machines, one disk each
//	defer cl.Shutdown()
//	client := cl.Client()                      // the program "runs on machine 0"
//
//	// PageDevice * store = new(machine 1) PageDevice("pagefile", 10, 1024);
//	store, _ := oopp.NewDevice(ctx, client, 1, "pagefile", 10, 1024, oopp.DiskPrivate)
//	_ = store.Write(ctx, 7, page)              // remote method execution
//	data, _ := store.Read(ctx, 7)
//	_ = store.Close(ctx)                       // delete -> process terminates
//
// Sequential semantics are the default: each remote instruction completes
// before the next begins. Parallelism is recovered exactly the way the
// paper's compiler transformation splits loops — issue the calls
// asynchronously, then collect:
//
//	futs := make([]*oopp.Future, n)
//	for i, d := range devices { futs[i] = d.ReadAsync(ctx, addr[i]) }  // send loop
//	for _, f := range futs   { _, _ = f.Wait(ctx) }                    // receive loop
//
// # The typed, context-aware surface
//
// User-defined classes register with the generic surface, a class with
// the codec of its constructor's argument and each method once with the
// codecs of its argument and its result, so that neither the caller nor
// the body writes or reads a byte by hand:
//
//	var counterClass = oopp.RegisterClass("app.Counter", oopp.IntCodec,
//		func(env *oopp.Env, start int) (*Counter, error) { return &Counter{n: start}, nil })
//	var counterAdd = oopp.DeclareOp(counterClass, "add", oopp.IntCodec, oopp.IntCodec,
//		func(c *Counter, env *oopp.Env, d int) (int, error) { c.n += d; return c.n, nil })
//	ref, _ := counterClass.New(ctx, client, m, 100)              // new(machine m) Counter(100)
//	n, _ := counterAdd.Call(ctx, client, ref, 23)                // the declared method, decoded result
//	fut := counterGet.CallAsync(ctx, client, ref, struct{}{})    // §4 send half
//	n, _ = fut.Wait(ctx)                                         // §4 receive half
//
// Every remote operation takes a context.Context — cancellation aborts
// the in-flight call promptly — and accepts CallOptions: WithTimeout /
// WithDeadline (a per-call deadline that travels with the future),
// WithRetryDial (redial on dial failure; requests are never resent), and
// WithLabel (a trace label woven into failure text). The surface is
// context-first throughout.
//
// # Typed distributed collections
//
// The paper's unit of parallel computation is not a single remote object
// but a collection of them — "FFT * fft[N]" operated on collectively
// (§4). Collection[T] renders that generically:
//
//	// "HistShard * shard[8]", shard i on machine i mod 4
//	coll, _ := oopp.SpawnClass(ctx, client, oopp.Cyclic(8, 4), shardClass,
//		func(m oopp.Member) histArgs { return histArgs{bins, 0, 1} })
//
//	// concurrent broadcast: completes in ~max(member latency), not the sum
//	_ = coll.Broadcast(ctx, shardObserve.Name(), func(m oopp.Member, e *oopp.Encoder) error {
//	        e.PutFloat64s(data[m.Index*chunk : (m.Index+1)*chunk])
//	        return nil
//	})
//	_ = coll.Barrier(ctx) // "shard->barrier()"
//
//	// combining reduction: per-member partials computed where the data
//	// lives, merged client-side with a monoid, in member order
//	total, _ := oopp.Reduce(ctx, coll, shardCount.Name(), nil, decodeInt, sumInt)
//
// Distribution descriptors (Block, Cyclic, OnMachines) place members
// over machines the way PageMap layouts
// place pages over devices. Collective operations fan out concurrently
// with a bounded in-flight window and report errors.Join of all member
// failures — each a MemberError carrying the member index — never a
// silent first-error abort.
// Views (Slice, OnMachine) are sub-collections sharing the same remote
// objects; MapIndexed runs per-member work concurrently with the
// member's index and owning machine in hand (owner-computes iteration).
// AttachCollection wraps remote pointers obtained elsewhere; the untyped
// Group is gone (the rmi package doc keeps its migration table).
// examples/collection runs a distributed histogram end to end on this
// surface.
//
// # Owner-computes kernels
//
// The paper's central claim is that code should execute inside the
// objects that hold the data. The Array takes that literally: Read and
// Write move elements between client and devices, but every *compute*
// operation — Fill, Scale, Sum, Norm2, Dot, Axpy — is a kernel
// collective that executes inside the storage device processes owning
// the pages. The client sends one batched RMI per involved device (a
// kernel name, a few float64 parameters, and the list of page regions
// that device owns); the device runs the kernel where the data lives;
// for reductions only a fixed-width (count, accumulator) partial
// returns — the device's merge, in region order, of one accumulator per
// page region — merged client-side in device order. Compute cost
// therefore scales with aggregate device CPU, not with the client's link.
//
// Inside the device the kernel runs on the page itself. A device whose
// pages sit in this process's memory (every DiskPrivate device, every
// in-memory machine disk) hands each method a []float64 view of the
// resident page: nothing is loaded, converted or stored back. A lock
// on the page's byte range of the disk stands where the copies used to:
// write-held for one page's stage chain, read-held while a peer's pull
// copies a region out, so a reader outside the device's mailbox sees
// each page wholly before or wholly after a chain, never torn. A device
// is still one process with one mailbox, but a large batch's page
// regions are shared among as many goroutines as the machine has cores,
// and the method returns when all have finished. The disk model is
// charged per access exactly as for a copy (seek + bytes/bandwidth,
// operation counts); only the memcpy is gone. A device on a file-backed
// disk, or one delegating to another PageDevice process, runs the same
// methods on a pooled copy of the page. Because mutation is in place, a
// method gathers everything that can fail or wait — operand pulls, frame
// decoding, the fence scan — before it enters a page: a call that fails
// there has changed nothing on that page. (A kernel that panics is the
// exception: its resident page keeps what the kernel had written.)
//
// There is ONE engine behind all of it. Every collective is a stage
// chain — Fill, Scale, Sum, Dot, Axpy and the user-kernel entry points
// are one-stage chains, a fused pipeline (next chapter) a longer one —
// and every chain goes through one device method
// (applyPipelineK, which carries the chain inline and resolves each
// stage in the device's own kernel registry) and one client loop: plan
// the per-device batches, fan out, classify failures, replay what a
// migration fence refused. Replication, migration and failure
// semantics are therefore stated once, by the chain's shape: a chain
// that only mutates degrades past a dead replica, a chain that only
// reduces retries on the survivors, a chain that does both returns the
// failure. In the always-on telemetry all collectives appear under
// ArrayPageDevice.applyPipelineK; sampled spans keep the entry-point
// names kernel.apply, kernel.reduce and kernel.pipeline.
//
// Kernels live in a process-global registry shared by client and
// server (every process of a deployment runs the same binary, so —
// like class registration — registering at init time keeps the two
// sides agreed). Array.Apply / Reduce / ApplyBinary / ReduceBinary are
// the escape hatch for user kernels:
//
//	oopp.RegisterMapKernel("app.clamp", oopp.MapKernel{
//	        MinParams: 2, // arity-checked before any page is touched
//	        Fn: func(row, p []float64) {
//	                for i := range row { row[i] = math.Min(p[1], math.Max(p[0], row[i])) }
//	        },
//	})
//	_ = arr.Apply(ctx, dom, "app.clamp", 0, 100)   // one RMI per device
//	acc, n, _ := arr.Reduce(ctx, dom, oopp.KernelMinMax)
//
// Reduction partials carry element counts, and devices never fold
// empty regions, so an identity accumulator (±Inf for min/max) cannot
// poison a combined result; an empty domain returns the identity with
// n == 0. Two-operand kernels (Axpy, Dot) run at the first operand's
// devices, each pulling the co-indexed region of the second operand
// directly from its device process — device to device; co-located page
// pairs degrade to shared-address-space reads with no traffic at all.
//
// Data movement composes the same way: Array.CopyFrom copies a
// subdomain between conformant arrays entirely device-to-device (the
// §5 copyFrom generalized) as a one-stage KernelCopy chain, so it
// degrades and parks on a migration fence like every other mutator.
// JacobiOwner runs the full solver the same way: sweeps execute
// inside the devices on the slabs they hold
// (plane-aligned layout, i.e. striped), double-buffered in a second
// on-device page bank (create the storage with 2×PagesPerDevice), with
// halo planes pulled between neighbouring devices mid-sweep — served
// by a concurrent method, so two devices both inside a sweep still
// exchange. Per sweep, O(N²) halo bytes + O(devices) residual scalars
// move, against the client path's O(N³); experiment E13 measures ~6×
// fewer bytes and faster sweeps at 8 devices, and examples/heat3d runs
// both paths (-owner flag).
//
// Client-side Read/Write remains the right tool when the client
// actually needs the elements: seeding from host data, probing values,
// interfacing with non-kernel code (the FFT), or any transform that is
// not expressible as an elementwise/reduction kernel over rows.
//
// Read and Write walk the client's array a pencil at a time, not a page
// at a time: a pencil is a run of pages side by side along the last axis,
// whose rows together are whole rows of the client's array, so memory is
// walked row by row, in order. Write packs a pencil's rows once into a
// pooled staging buffer, and every replica's call of a page sends the
// page's values from there: its frame borrows them as its tail
// (wire.Encoder.BorrowFloat64s), TCP writes them from where they lie behind
// the call's header in one vectored write, and the call has left when it
// is issued, so the buffer is packed again for the next pencil. k
// replicas share one packing and no copy into a frame. A device answers a
// page read from the page it holds: the reply lends the page as its tail,
// and the page stays entered — pinned, read-locked where it lies in
// memory — until the reply has left, before the device's next method.
// Read holds a pencil's replies, checks each one whole, and then copies
// each row's runs straight out of the replies, one slice copy a run. So a
// page crosses memory only in the sockets and in that landing copy. A
// page is all or nothing: a page
// whose read fails leaves its elements of the destination as they were,
// while the rest of its pencil lands. The messages and bytes on the wire
// are those of one call per page and replica.
//
// # Kernel pipeline
//
// Each kernel collective costs one fan-out round and one page pass per
// stage: chain Scale, then Axpy, then Sum and every device pays three
// RMI round-trips and sweeps every page three times. A
// Pipeline fuses the chain. Register an ordered stage list once — each
// stage names an already-registered Map, Binary, Reduce or BinaryReduce
// kernel; the name lives client-side, the chain itself travels inline
// — and Array.ApplyPipeline ships the whole chain in ONE batched RMI per
// involved device; the device enters each page region once and walks
// the stages in order over the page's own memory. Stage parameters
// travel out, fixed-width reduce partials travel back, element data
// never moves.
//
//	oopp.RegisterPipeline("app.scaled-dot-step", oopp.Pipeline{Stages: []oopp.PipelineStage{
//	        oopp.MapStage(oopp.KernelScale),    // u *= p
//	        oopp.BinaryStage(oopp.KernelAxpy),  // u += a*v
//	        oopp.ReduceStage(oopp.KernelSum),   // Σu
//	}})
//	res, _ := u.ApplyPipeline(ctx, dom, "app.scaled-dot-step",
//	        []*oopp.Array{v},                   // one operand per two-operand stage, in order
//	        []float64{0.5}, []float64{2}, nil)  // one param vector per stage
//	total := res[0].Acc[0]                      // one StageResult per reduce stage
//
// Fusion changes the cost, not the semantics. Stages apply strictly in
// chain order to each region, with the same row arithmetic the
// standalone collectives use, so the outcome is bitwise-identical to
// issuing the stages as separate Apply/ApplyBinary/Reduce calls — the
// chain just stays on the page between stages. A two-operand stage's
// operand is the peer's page as stored when the region's chain starts
// (all of a region's operands are pulled before its page is entered),
// also when the peer page is the target itself. A region is charged one
// page read and, if the chain mutates, one page write; the one special
// case is a chain whose FIRST stage is an overwriting map (Fill):
// whole-page regions are then charged no read, exactly as Fill alone
// is. Under a replicated map, mutating stages
// fan to every replica (the deterministic chain keeps replica banks
// bitwise identical), while each page's reduce stages fold on exactly
// one live replica — so replication never double-counts a partial, and
// reduce results merge per device in region order, then in device
// order, deterministic for associative kernels. Failure tolerance follows the chain's shape: pure-map
// chains degrade like Apply, pure-reduce chains retry surviving
// replicas like Reduce, and a chain that both mutates and reduces
// returns the failure rather than risk re-applying its mutations.
//
// Migrating a chained-collective hot loop onto the fused path:
//
//	chained (one RMI round per stage)         fused (one RMI round per chain)
//	----------------------------------------  ----------------------------------------------
//	u.Scale(ctx, dom, 0.5)                    register Pipeline{MapStage(KernelScale),
//	u.Axpy(ctx, dom, 2, v)                      BinaryStage(KernelAxpy), ReduceStage(KernelSum)}
//	s, _ := u.Sum(ctx, dom)                   res, _ := u.ApplyPipeline(ctx, dom, name,
//	                                            []*oopp.Array{v}, []float64{0.5}, []float64{2}, nil)
//	u.Apply(ctx, dom, "app.clamp", 0, 100)    MapStage("app.clamp") — user kernels chain too
//	acc, n, _ := u.Reduce(ctx, dom, name)     res[i].Acc, res[i].N — i-th reduce stage, stage order
//
// The same release also overlapped JacobiOwner's halo traffic: each
// device posts its edge-plane pulls asynchronously on the concurrent
// read lane, sweeps interior planes while the halos fly, and finishes
// the boundary planes on arrival. Overlap reorders when work happens,
// never a value — JacobiOwnerSync keeps the fetch-then-sweep reference
// schedule, pinned bitwise-equal in the tests, and examples/heat3d
// exposes both (-synchalo). Experiment E13 measures all of it: fused
// chains run one RMI per device per iteration (a third of the unfused
// messages, ≥2× faster on a latency-dominated link) and overlapped
// sweeps shave µs/iter at identical traffic.
//
// # Performance & buffer ownership
//
// The paper's cost model requires remote invocation overhead to be
// negligible next to data movement, so the hot path recycles everything:
// a warmed-up synchronous call performs zero heap allocations end to end,
// and a bulk read copies its payload exactly once (wire to user buffer).
// A collective crosses the kernel once per machine each way: its small
// requests are held and leave together, and the server answers the
// requests of one such burst with one write as well — the last member to
// finish sends its siblings' replies with its own, so a reply may wait
// for its siblings but never for another collective or for a request with
// a deadline, and the collective returns no later than before. Single
// calls are never held and answered one by one. Both sides gather what
// leaves together in one transport.Burst, which also refuses a frame over
// 64 MiB: the request it belongs to fails with transport.ErrFrameTooLarge,
// and nothing else does. Nor do two processors
// queue for one lock on a call's path: a frame of 64 KiB or less is
// recycled through a free list per processor (the small tier of
// internal/bufpool; larger frames keep bounded shared lists), and a
// server admits a request, finds its object, method and telemetry, and a
// client finds its connection, in atomics and in tables that are
// published copies, rewritten only when an object, a method or a
// connection comes or goes. Three rules make the recycling safe:
//
//   - Send transfers ownership. A frame handed to a transport Send (or,
//     with others, to SendBurst) belongs to the transport afterwards: the
//     in-process transport forwards the very slice to the peer, the TCP
//     transport joins small frames in one write, writes a long one
//     vectored (header + payload, no join), and recycles it. Never touch
//     a buffer you have sent. A frame's borrowed tail (a page write's
//     values) is the one exception: SendBurst only reads it, and it is
//     the sender's again when SendBurst returns.
//   - Receive then Release. The decoder returned by Call / Future.Wait
//     owns its response frame; call Release once decoding is done to
//     return the frame to the shared pool. Forgetting Release is safe —
//     the garbage collector takes over — it just stops the recycling.
//     Err, Ref and an Op's Call and TypedFuture release for you; the bulk
//     stubs (GetRangeInto, ReadPage, ...) do too.
//   - Views die with their frame. BytesView/Bytes/StringBytes return
//     slices aliasing the response frame, valid only until Release; copy
//     (BytesCopy) anything that must outlive the decode. Encoders
//     obtained from wire.GetEncoder panic if used after PutEncoder.
//
// The *Into decode forms (Float64sInto, Complex128sInto) and
// the stub fast lanes built on them (rmem GetRangeInto, pagedev ReadPage)
// fill caller-owned buffers in a single pass — the bulk-data path the E2
// experiment measures against the modeled link bandwidth.
//
// # Deployment: one process or many
//
// Everything above the transport is deployment-agnostic; a program moves
// between three shapes without touching its classes or call sites:
//
//	shape                       transport        directory            used for
//	--------------------------  ---------------  -------------------  ----------------------------
//	one process, free links     inproc           addresses in-proc    unit tests, development
//	one process, modeled links  inproc+LinkModel addresses in-proc    experiments, benchmarks
//	one process per machine     tcp              static list or       production, integration
//	                                             file registry        (cmd/oppcluster, e2e suite)
//
// The multi-process shape is the paper's multicomputer made literal:
// cmd/oppcluster runs one machine per OS process, each hosting an object
// server, an outbound client for its objects' peer calls, and its
// disks. Peers are discovered either through a static -peers address
// list or through a shared file registry (cluster.FileRegistry): every
// server publishes its listen address into the registry directory
// atomically, clients and peers resolve through the same directory, and
// a machine that restarts on a new port is re-resolved on the next
// dial. cluster.WaitReady is the readiness barrier — it pings every
// machine with backoff until the cluster answers, so clients never race
// server start.
//
// The runtime keeps the cluster usable when machines misbehave:
//
//   - Reconnect: a dropped connection fails its pending calls with a
//     typed *rmi.MachineDownError and is evicted; the next operation to
//     that machine redials (with exponential backoff), so a transient
//     drop or a server restart needs no client surgery.
//   - Failure detection: rmi.Client.StartHeartbeat probes machines
//     periodically and, after consecutive misses, declares a machine
//     down — pending and new calls fail fast with ErrMachineDown
//     instead of burning timeouts, and a recovered machine is detected
//     and marked up automatically. Collectives surface the verdict per
//     member: each failed member is an rmi.MemberError (its index,
//     machine and cause) in the joined error, and FailedMachines(err)
//     lists the machines.
//   - Graceful drain: rmi.Server.Drain finishes in-flight calls while
//     refusing new work with ErrDraining (pings included, so probes see
//     the machine leaving); oppcluster wires SIGINT/SIGTERM to
//     drain-then-close and exits non-zero unless the cycle was clean.
//
// The internal/e2e package proves all of this over real OS processes
// and real sockets in CI: typed RMI, collection collectives, and
// BlockStorage run against 4-process TCP clusters, one server is
// SIGKILLed under a live collection to assert failure detection and
// partial success, and a killed machine is restarted to assert
// registry re-resolution and reconnect.
//
// # Serving tier
//
// A deployed cluster is a high-fan-in service: thousands of logical
// callers against a handful of machines. The serving tier makes that
// shape safe from both ends.
//
// On the client, a Pool multiplexes any number of Sessions over a
// fixed socket budget (PoolConfig.Conns connections per machine, four
// by default) — 10k concurrent callers do not mean 10k sockets,
// because every connection already carries any number of concurrent
// requests. Each call picks the pooled connection with the fewest
// requests outstanding toward its target, so a connection stuck behind
// a slow reply stops accumulating new work. Sessions are two words
// plus their default CallOptions: open one per logical caller, drop it
// when done.
//
//	pool, _ := oopp.NewPool(oopp.PoolConfig{Transport: tr, Directory: dir})
//	sess := pool.Session(oopp.WithTimeout(5 * time.Second))
//	fut := sess.CallAsync(ctx, ref, appWork.Name(), args)
//
// On the server, admission control bounds the work each machine
// accepts, per priority class (AdmissionConfig, set via
// NodeConfig.Admission or Server.SetAdmission; oppcluster exposes
// -admit-high/-admit-normal/-admit-bulk). Every request carries its
// Priority in the wire header — PrioHigh for control traffic (pings,
// stats, deletes default here), PrioNormal for calls and
// constructions, PrioBulk for background work; WithPriority overrides
// per call or per session. A request beyond its class's capacity is
// shed before its arguments are decoded: the caller gets a typed
// OverloadedError naming the machine, the saturated class, and a
// retry-after hint derived from observed service times
// (oopp.RetryAfter extracts it, locally or across the wire).
//
//	if _, err := sess.Call(ctx, ref, appWork.Name(), args); errors.Is(err, oopp.ErrOverloaded) {
//	        d, _ := oopp.RetryAfter(err)
//	        time.Sleep(d) // back off and retry; the server is alive, just full
//	}
//
// The classes keep failure modes separate: a machine saturated with
// bulk work still answers pings immediately (control traffic never
// queues behind a full normal class), so heartbeats do not declare a
// busy machine down, and ErrOverloaded never masks ErrDraining — a
// draining server says so even when it is also full. The open-loop
// load generator cmd/opploadgen drives a live cluster through
// saturation and reports goodput and latency quantiles; experiment E14
// measures the tier end to end (10k concurrent in-flight calls, exact
// shed counts against a parked mailbox, a zero-allocation hot path,
// and goodput held within 20% of peak at twice the saturating load).
//
// # Fault tolerance
//
// A distributed array is as mortal as its least reliable machine —
// unless its pages live in more than one place. Every PageMap is a
// table that gives each page a chain of copies; NewReplicatedMap
// returns the PageMap whose chains place every page of a layout on k
// distinct devices:
//
//	base, _ := oopp.NewPageMap("roundrobin", 4, 4, 4, devices)
//	pm, _ := oopp.NewReplicatedMap(base, 2)
//	storage, _ := oopp.CreateBlockStorage(ctx, client, machines, "a",
//	        pm.PagesPerDevice()+spare, n, n, n, oopp.DiskPrivate)
//	arr, _ := oopp.NewArray(ctx, storage, pm, N, N, N, n, n, n)
//
// Writes fan out to all k replicas with primary-ack semantics: a write
// succeeds when at least one replica of every touched page acks, and a
// replica lost to a down machine is tolerated and counted
// (Array.DegradedWrites) rather than surfaced — any other failure is
// still an error. One per-region tally in core classifies every
// replica write outcome — Write's page calls, a kernel fan-out's
// failed devices. The owner-computes kernels replay deterministic
// mutations on every replica, so replicas stay bitwise identical
// without a read-back. Reads cost the same as unreplicated reads: any
// one live replica serves, and a down primary just routes the read to
// the next replica in the chain. Experiment E15 pins the price: k=2
// writes move ≤2.2× the k=1 bytes, reads 1.0×.
//
// Failover turns the heartbeat's down verdict into restored service:
//
//	hb := client.StartHeartbeat(oopp.HeartbeatConfig{...})
//	// ... machine m dies; hb declares it down ...
//	rep, err := arr.Failover(ctx, m)
//
// Failover drops the dead devices from every replica chain (promoting
// the first survivor to acting primary), re-seeds each lost replica
// onto a surviving device's spare page slots — copied device-to-device
// from the acting primary, never through the client — and atomically
// re-mints the page map (its name gains a "+failover" marker) so
// subsequent operations address only survivors. The FailoverReport says what happened: pages promoted and
// re-seeded, pages left degraded (no spare slots to re-seed into — the
// array still serves, one replica short), and pages lost outright
// (every replica dead; only then is data gone). Devices provisioned
// with pagesPerDevice above the map's requirement are the re-seed
// budget. A machine that restarts after failover is an empty peer, not
// a stale replica: the re-minted map never addresses it, so no stale
// page can serve — re-integrating it is a fresh spawn plus Failover's
// re-seed lane, not a rejoin.
//
// For k=1 arrays the story is a checkpoint, not a failover:
// CheckpointArray streams the geometry, the page map's table as it
// stands and every device's pages into a
// persistence Store, and after any number of machine deaths
// RecoverArray reconstructs the array from the store — cold state,
// full data, on the store's machine. The kill-one-server e2e suite
// runs both lanes against real processes and a real SIGKILL: with k=2
// the run completes with zero failed calls and zero data loss.
//
// # Elasticity
//
// Failover reacts to machines dying; elasticity is the planned
// counterpart: page placement is a live, mutable property of a running
// array. The migration engine moves pages device-to-device with the
// page copy failover re-seeding also executes (one applyPipelineK call
// per destination device — a KernelCopy batch of the device's kernel
// engine that names each source device once, its remote pages fetched
// in pieces no larger than the buffer pool recycles — fanned out like
// every collective, within the Array client's transfer window — window
// 1 is the sequential §2 form), under a brief
// per-page write fence: a fenced page refuses mutations with a typed error the
// client parks on and replays after the map flip, reads never block,
// and the whole array keeps serving throughout. When the copies land,
// the engine atomically re-mints the page map — through the same one
// constructor failover uses; its name gains a "+resharded" marker (the
// markers are for people and never repeat back to back: every map is a
// table, which PublishArray and CheckpointArray store in the array's
// descriptor, and no name rebuilds a re-minted one) — and retires
// the source slots — a client still holding the pre-flip map gets the
// typed fence error and re-resolves, never a silent write into a dead
// slot.
//
// Three entry points drive it:
//
//	rep, _ := arr.MigratePages(ctx, []oopp.Move{{From: 0, To: 2, Pages: 4}})
//	rrep, _ := arr.Rebalance(ctx, oopp.RebalanceConfig{})
//	drep, _ := arr.DrainMachine(ctx, m)
//
// MigratePages executes an explicit plan. Rebalance observes per-device
// occupancy and served-I/O gauges and executes the minimal-move plan
// that levels page counts (hottest donors shed first, coolest receivers
// fill first); DryRun returns the plan without moving anything.
// DrainMachine empties every device on a machine, complete-or-fail —
// the planned-decommission half: drain, then retire the machine for
// free (the chaos suite SIGKILLs a drained machine and nothing
// degrades).
//
// Clusters grow the same way. A new machine claims the next free index
// from the shared registry atomically (no index coordination):
//
//	node, _ := oopp.JoinNode(oopp.NodeConfig{Addr: ":0", Registry: reg})
//	idx, _ := storage.AddDevice(ctx, node.Machine(), pages, oopp.DiskPrivate)
//	arr.Rebalance(ctx, oopp.RebalanceConfig{})
//
// and Rebalance flows its fair share of pages onto it. cmd/oppcluster
// exposes two drills:
// -join serves a machine on a claimed index, -drain-pages migrates
// every page off a machine and verifies the contents survived.
// Experiment E16 gates the cost: a rebalance ships only the moved
// pages' payload (≤1.1×), nowhere near a full rebuild, and a drain
// leaves exactly zero pages behind.
//
// # Observability
//
// A cluster of object processes is only debuggable if causality
// survives the hops. The observability plane has an always-on half and
// a sampled half, priced so that the paper's zero-allocation hot path
// is untouched when nobody is watching.
//
// Always on: every machine keeps one telemetry registry — a latency
// histogram plus OK / error / expired-deadline / fenced counters per
// class.method, updated on every dispatch, allocation-free after the
// first call of a method, and the machine's counters (rmi.Env.Counters):
// messages and bytes its server and outbound client send, disk
// operations, sheds, retries, pages migrated in. No event is counted
// twice. The debug plane (a dedicated introspection op that, like Stat,
// bypasses admission control) serializes the whole registry as a
// self-describing JSON snapshot, so even an in-process cluster says
// which machine paid.
//
// Sampled: requests carry a trace context (trace id, parent span id,
// sampled bit) in the wire header. WithSampled at any call site mints
// a trace; servers restore the context into the handler's Env.Ctx(),
// so when the handler calls a peer through Env.Client the same trace
// extends across machines with correctly-parented spans. Sampled spans
// land in a fixed-size per-process ring (trace.Spans reads it, the
// debug snapshot carries it); unsampled requests propagate the ids and
// capture nothing. The runtime opens spans around its own phases too —
// kernel collectives and pipelines, migration fence/copy/flip,
// failover, checkpoint and recovery, admission sheds — so a slow batch
// shows where the time went.
//
//	ref, _ := sess.New(ctx, 0, workClass.Name(), nil)
//	d, _ := sess.Call(ctx, ref, appRelay.Name(), args, oopp.WithSampled())
//
// cmd/opptrace is the introspection client: it pulls every machine's
// snapshot, merges the histograms into cluster-wide per-method
// p50/p99 tables, prints the counters one column per machine, and
// stitches one trace's spans from all machines
// into a causality tree ("-trace 0x1a2b"); -assert-cross-machine is
// the CI gate that a child span's parent ran on another machine.
// cmd/opploadgen drives sampled load ("-sample 0.01") and reports
// per-priority-class latency quantiles. Experiment E17 prices the
// three lanes — untraced stays zero-allocation (hard-gated), an
// unsampled trace context costs a few small allocations, only sampled
// calls pay for capture.
//
// # Layers
//
// The public surface re-exports the layered implementation:
//
//   - Cluster, Machine: the simulated multicomputer (in-process transport
//     with an optional latency/bandwidth link model, or real TCP). A
//     Machine is a Node — what StartNode runs one of per process.
//   - Client, Ref, Future, Op, Codec, TypedFuture, CallOption: the RMI
//     runtime — remote new, remote method execution, methods declared with
//     their codecs and their decoded futures, per-call policy.
//   - Collection, Member, Distribution, SpawnClass, Reduce,
//     MapIndexed: typed distributed collections with concurrent
//     collectives and combining reductions.
//   - Float64Array: remote plain memory ("new(machine 2) double[1024]").
//   - Device, ArrayDevice, Page, ArrayPage: the storage process hierarchy
//     with process inheritance.
//   - Array, Domain, PageMap, BlockStorage: the distributed 3D array, its
//     subdomains, and the data layouts — one page table type — that
//     determine I/O parallelism.
//   - MapKernel and RegisterMapKernel: the owner-computes kernel registry
//     behind the Array's compute surface and its Apply/Reduce escape
//     hatch.
//   - PFFT: the group of FFT processes jointly computing a 3D transform.
//   - Address, NameService, Store, Manager: persistent processes with
//     symbolic addresses.
//   - NewReplicatedMap (a PageMap of k-address chains), FailoverReport,
//     CheckpointArray, RecoverArray: k-way page replication with
//     failover, and persist-backed cold recovery.
//   - Move, DeviceLoad, MigrateReport, RebalanceConfig, JoinNode,
//     DrainPlan: the elastic cluster — live page
//     migration, the load-aware rebalancer, and machine join/drain.
//   - WithSampled, Client.Debug, trace.Snapshot: the observability
//     plane — wire-propagated trace context, per-machine counters and
//     per-method telemetry, and the sampled span ring, pulled and
//     stitched by cmd/opptrace.
//
// This package doc is the system inventory; `oppbench -list` indexes the
// experiment suite, and cmd/oppbench reproduces every experiment table.
package oopp
