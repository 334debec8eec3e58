package oopp

import (
	"context"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/collection"
	"oopp/internal/core"
	"oopp/internal/disk"
	"oopp/internal/elastic"
	"oopp/internal/fft"
	"oopp/internal/kernel"
	"oopp/internal/pagedev"
	"oopp/internal/persist"
	"oopp/internal/pfft"
	"oopp/internal/rmem"
	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/transport"
	"oopp/internal/wire"
)

// Re-exported types. Aliases (not definitions) so values flow freely
// between the facade and the internal packages.
type (
	// Cluster is a set of machines sharing a transport and directory.
	Cluster = cluster.Cluster
	// ClusterConfig configures machines, transport, disks.
	ClusterConfig = cluster.Config
	// Machine is one node: object server, outbound client, local disks.
	Machine = cluster.Machine

	// Client issues remote constructions and method calls.
	Client = rmi.Client
	// Ref is a remote pointer to an object (process) on a machine.
	Ref = rmi.Ref
	// Future is the pending result of an asynchronous remote operation.
	Future = rmi.Future
	// Env is the per-machine environment visible to server-side objects.
	Env = rmi.Env
	// CallOption tunes one remote operation (deadline, dial retry, trace
	// label); see WithTimeout, WithRetryDial, WithLabel.
	CallOption = rmi.CallOption
	// ClassSpec is the untyped descriptor of a registered remote class.
	ClassSpec = rmi.ClassSpec
	// Encoder appends values to a request frame (typed stubs).
	Encoder = wire.Encoder
	// Decoder reads values from a reply frame (typed stubs).
	Decoder = wire.Decoder

	// Float64Array is remote plain memory of float64s.
	Float64Array = rmem.Float64Array

	// Page is a block of unstructured data.
	Page = pagedev.Page
	// ArrayPage is a structured N1×N2×N3 block of float64s.
	ArrayPage = pagedev.ArrayPage
	// Device is the client stub for a PageDevice process.
	Device = pagedev.Device
	// ArrayDevice is the client stub for an ArrayPageDevice process.
	ArrayDevice = pagedev.ArrayDevice

	// Domain is a half-open box of array indices.
	Domain = core.Domain
	// PageAddress locates a logical page on a device.
	PageAddress = core.PageAddress
	// PageMap maps logical pages to physical addresses (the data
	// layout): an immutable table of each page's chain of copies.
	PageMap = core.PageMap
	// BlockStorage is the vector of storage device processes.
	BlockStorage = core.BlockStorage
	// Array is the distributed 3D array client.
	Array = core.Array

	// PFFT is a group of FFT processes jointly transforming a 3D array.
	PFFT = pfft.PFFT

	// Address is a symbolic object address ("oop://data/set/X/34").
	Address = persist.Address
	// NameService is the address directory process stub.
	NameService = persist.NameService
	// Store is the per-machine passivation store stub.
	Store = persist.Store
	// Manager composes NameService and Stores into transparent
	// deactivate/reactivate.
	Manager = persist.Manager
	// Persistable is implemented by passivatable server-side objects.
	Persistable = persist.Persistable

	// DiskModel is the simulated disk cost model.
	DiskModel = disk.Model
	// Transport moves framed messages between machines.
	Transport = transport.Transport
)

// DiskPrivate, as a disk index, gives a device a private in-memory disk.
const DiskPrivate = pagedev.DiskPrivate

// ---- Production cluster runtime ---------------------------------------------
//
// The multi-process deployment surface: per-machine Nodes discovered
// through a registry, readiness barriers, typed machine-failure errors
// and heartbeat failure detection. See the "Deployment" chapter of the
// package doc.

type (
	// Node is one running machine of a multi-process cluster (the unit
	// cmd/oppcluster runs one-of-per-process).
	Node = cluster.Node
	// NodeConfig configures a Node: machine index, listen address,
	// directory/registry, disks.
	NodeConfig = cluster.NodeConfig
	// FileRegistry is a filesystem-backed machine-address directory for
	// multi-process clusters.
	FileRegistry = cluster.FileRegistry
	// MachineDownError reports an unreachable machine (connection lost,
	// dial exhausted, or heartbeat verdict). Matches ErrMachineDown.
	MachineDownError = rmi.MachineDownError
	// Heartbeat is a running machine-failure detector.
	Heartbeat = rmi.Heartbeat
	// HeartbeatConfig tunes a Heartbeat (interval, timeout, miss
	// threshold, transition callbacks).
	HeartbeatConfig = rmi.HeartbeatConfig
	// Directory resolves machine indices to dialable addresses.
	Directory = rmi.Directory
	// StaticDirectory is a fixed machine address list.
	StaticDirectory = rmi.StaticDirectory
)

// ErrMachineDown matches machine-level failures under errors.Is.
var ErrMachineDown = rmi.ErrMachineDown

// ErrDraining matches calls refused by a gracefully-draining server.
var ErrDraining = rmi.ErrDraining

// ---- Serving tier ------------------------------------------------------------
//
// The high-fan-in front door: many logical Sessions multiplexed over a
// small pooled set of connections on the client, per-priority admission
// control with typed fail-fast overload errors on the server. See the
// "Serving tier" chapter of the package doc.

type (
	// Priority is a request's admission class (high, normal, bulk). It
	// travels in the wire header, so the server classifies a request
	// before decoding it.
	Priority = rmi.Priority
	// AdmissionConfig bounds the in-flight requests a server admits per
	// priority class (0 = class default, negative = unbounded).
	AdmissionConfig = rmi.AdmissionConfig
	// OverloadedError reports a request shed by admission control. It
	// matches ErrOverloaded and carries the server's retry-after hint.
	OverloadedError = rmi.OverloadedError
	// Pool is a fixed set of multiplexed connections shared by many
	// Sessions — the answer to "10k callers must not mean 10k sockets".
	Pool = serve.Pool
	// PoolConfig configures a Pool (transport, directory, socket budget).
	PoolConfig = serve.PoolConfig
	// Session is one logical client on a Pool; cheap, with its own
	// default call options, picking the least-loaded connection per call.
	Session = serve.Session
)

// Priority classes, highest first. Pings, stats, and deletes default to
// PrioHigh; constructions and calls to PrioNormal; WithPriority
// overrides per call or per session.
const (
	PrioHigh   = rmi.PrioHigh
	PrioNormal = rmi.PrioNormal
	PrioBulk   = rmi.PrioBulk
)

// ErrOverloaded matches requests shed by admission control under
// errors.Is — locally and across the wire.
var ErrOverloaded = rmi.ErrOverloaded

// WithPriority stamps the request's admission class into the wire
// header.
func WithPriority(p Priority) CallOption { return rmi.WithPriority(p) }

// RetryAfter extracts the server's backoff hint from an overload error,
// local or remote.
func RetryAfter(err error) (time.Duration, bool) { return rmi.RetryAfter(err) }

// WithSampled turns distributed-trace span capture on for this
// operation (minting a new trace if the context carries none). One
// WithSampled at the edge lights up the whole causal tree: the trace
// context rides the wire header, every peer hop extends it, and
// cmd/opptrace stitches the captured spans back together. See the
// "Observability" chapter of the package doc.
func WithSampled() CallOption { return rmi.WithSampled() }

// NewPool creates a connection pool for high-fan-in clients.
func NewPool(cfg PoolConfig) (*Pool, error) { return serve.NewPool(cfg) }

// StartNode brings one machine of a multi-process cluster up.
func StartNode(cfg NodeConfig) (*Node, error) { return cluster.StartNode(cfg) }

// NewFileRegistry opens (creating if needed) a registry of n machine
// addresses rooted at dir; Addr waits up to timeout for publication.
func NewFileRegistry(dir string, n int, timeout time.Duration) (*FileRegistry, error) {
	return cluster.NewFileRegistry(dir, n, timeout)
}

// WaitReady blocks until every listed machine (default: all) answers a
// ping — the readiness barrier of multi-process bring-up.
func WaitReady(ctx context.Context, client *Client, machines ...int) error {
	return cluster.WaitReady(ctx, client, machines...)
}

// FailedMachines extracts the distinct machines named in a collective
// operation's errors.Join aggregate.
func FailedMachines(err error) []int { return collection.FailedMachines(err) }

// NewCluster brings up a cluster per cfg.
func NewCluster(cfg ClusterConfig) (*Cluster, error) { return cluster.New(cfg) }

// NewLocalCluster brings up n machines with d memory disks each over a
// cost-free in-process transport — the quickstart configuration.
func NewLocalCluster(n, d int) (*Cluster, error) { return cluster.NewLocal(n, d) }

// TCPTransport returns the real-socket transport.
func TCPTransport() Transport { return transport.TCP{} }

// NewFloat64Array allocates n float64s on machine m — the paper's
// "new(machine m) double[n]".
func NewFloat64Array(ctx context.Context, client *Client, m, n int) (*Float64Array, error) {
	return rmem.NewFloat64Array(ctx, client, m, n)
}

// NewPage allocates an n-byte page.
func NewPage(n int) *Page { return pagedev.NewPage(n) }

// NewArrayPage allocates an n1×n2×n3 array page.
func NewArrayPage(n1, n2, n3 int) *ArrayPage { return pagedev.NewArrayPage(n1, n2, n3) }

// NewDevice creates a PageDevice process on machine m.
func NewDevice(ctx context.Context, client *Client, m int, name string, numPages, pageSize, diskIndex int) (*Device, error) {
	return pagedev.NewDevice(ctx, client, m, name, numPages, pageSize, diskIndex)
}

// NewArrayDevice creates an ArrayPageDevice process on machine m.
func NewArrayDevice(ctx context.Context, client *Client, m int, name string, numPages, n1, n2, n3, diskIndex int) (*ArrayDevice, error) {
	return pagedev.NewArrayDevice(ctx, client, m, name, numPages, n1, n2, n3, diskIndex)
}

// NewArrayDeviceFromProcess wraps an existing PageDevice process in a new
// ArrayPageDevice process (§5 construct-from-process).
func NewArrayDeviceFromProcess(ctx context.Context, client *Client, m int, src Ref, numPages, n1, n2, n3 int) (*ArrayDevice, error) {
	return pagedev.NewArrayDeviceFromProcess(ctx, client, m, src, numPages, n1, n2, n3)
}

// AttachDevice wraps an existing remote pointer in a Device stub.
func AttachDevice(client *Client, ref Ref) *Device { return pagedev.AttachDevice(client, ref) }

// AttachArrayDevice wraps an existing remote pointer in an ArrayDevice
// stub.
func AttachArrayDevice(client *Client, ref Ref, n1, n2, n3 int) *ArrayDevice {
	return pagedev.AttachArrayDevice(client, ref, n1, n2, n3)
}

// NewDomain builds the box [l1,h1) × [l2,h2) × [l3,h3).
func NewDomain(l1, h1, l2, h2, l3, h3 int) Domain { return core.NewDomain(l1, h1, l2, h2, l3, h3) }

// Box is the full domain [0,n1) × [0,n2) × [0,n3).
func Box(n1, n2, n3 int) Domain { return core.Box(n1, n2, n3) }

// NewPageMap builds a layout by name: "roundrobin", "blocked", "striped",
// "hash", optionally suffixed "+r<k>" for k-way replication.
func NewPageMap(name string, p1, p2, p3, devices int) (PageMap, error) {
	return core.NewPageMap(name, p1, p2, p3, devices)
}

// PageMapNames lists the available layouts.
func PageMapNames() []string { return core.PageMapNames() }

// NewBlockStorage wraps existing device stubs.
func NewBlockStorage(devices []*ArrayDevice) *BlockStorage { return core.NewBlockStorage(devices) }

// CreateBlockStorage constructs one ArrayPageDevice process per machine.
func CreateBlockStorage(ctx context.Context, client *Client, machines []int, name string, pagesPerDevice, n1, n2, n3, diskIndex int) (*BlockStorage, error) {
	return core.CreateBlockStorage(ctx, client, machines, name, pagesPerDevice, n1, n2, n3, diskIndex)
}

// NewArray validates geometry and returns a distributed array client.
func NewArray(ctx context.Context, storage *BlockStorage, pm PageMap, N1, N2, N3, n1, n2, n3 int) (*Array, error) {
	return core.NewArray(ctx, storage, pm, N1, N2, N3, n1, n2, n3)
}

// ---- Fault tolerance ---------------------------------------------------------
//
// k-way page replication with heartbeat-triggered failover, and
// persist-backed cold recovery for unreplicated arrays. See the "Fault
// tolerance" chapter of the package doc.

// FailoverReport summarizes one Array.Failover: promotions, re-seeds,
// pages left degraded or lost.
type FailoverReport = core.FailoverReport

// NewReplicatedMap returns the PageMap that places every page of base on
// k distinct devices: each page's chain holds k addresses. Arrays over
// it fan writes out to all replicas (primary-ack) and serve reads from
// any live replica; devices need k× the base map's pages-per-device,
// plus spare slots if Failover is to re-seed.
func NewReplicatedMap(base PageMap, k int) (PageMap, error) {
	return core.NewReplicatedMap(base, k)
}

// CheckpointArray writes a cold copy of the array — geometry plus every
// device's pages — into a persistence store under name.
func CheckpointArray(ctx context.Context, arr *Array, store *Store, name string) error {
	return core.CheckpointArray(ctx, arr, store, name)
}

// RecoverArray reconstructs a checkpointed array from the store,
// activating the device blobs on the store's machine.
func RecoverArray(ctx context.Context, client *Client, store *Store, name string) (*Array, error) {
	return core.RecoverArray(ctx, client, store, name)
}

// RemoveCheckpoint deletes a checkpoint's blobs from the store.
func RemoveCheckpoint(ctx context.Context, store *Store, name string, devices int) error {
	return core.RemoveCheckpoint(ctx, store, name, devices)
}

// ---- Elastic cluster ---------------------------------------------------------
//
// Page placement is a live, mutable property of a running array: pages
// migrate device-to-device under a brief per-page write fence (reads
// never block; fenced writes park and replay after the map flip), a
// load-aware rebalancer plans minimal moves, and machines join by
// claiming a registry index or leave by draining every page off first.
// See the "Elasticity" chapter of the package doc.

type (
	// Move is one migration-plan instruction: relocate Pages page
	// copies from device From to device To.
	Move = elastic.Move
	// DeviceLoad is the rebalance planner's per-device observation:
	// page occupancy, free slots, and served I/O.
	DeviceLoad = elastic.DeviceLoad
	// MigrateReport summarizes one Array.MigratePages or
	// Array.DrainMachine run: pages and bytes moved, moves skipped.
	MigrateReport = core.MigrateReport
	// RebalanceConfig tunes Array.Rebalance (DryRun plans only).
	RebalanceConfig = core.RebalanceConfig
	// RebalanceReport carries the rebalancer's plan and what executing
	// it actually moved.
	RebalanceReport = core.RebalanceReport
)

// JoinNode starts a node on the next free machine index claimed
// atomically from cfg.Registry — how a new machine enters a running
// multi-process cluster without index coordination. Pair it with
// BlockStorage.AddDevice and Array.Rebalance to flow pages onto it.
func JoinNode(cfg NodeConfig) (*Node, error) { return cluster.JoinNode(cfg) }

// DrainPlan computes the complete-or-fail plan moving every page off
// the drained device onto the emptiest survivors.
func DrainPlan(loads []DeviceLoad, drain int) ([]Move, error) {
	return elastic.DrainPlan(loads, drain)
}

// ---- Owner-computes kernels --------------------------------------------------
//
// Array math executes inside the device processes that own the pages:
// Fill/Scale/Sum/MinMax/Norm2/Dot/Axpy are kernel collectives (one RMI
// per involved device), and Array.Apply/Reduce/ApplyBinary/ReduceBinary
// run user-registered kernels the same way. See the "Owner-computes
// kernels" chapter of the package doc.

type (
	// MapKernel transforms one contiguous row of elements in place.
	MapKernel = kernel.Map
	// Pipeline is the fused-kernel shape: an ordered stage chain
	// executed device-side as one page pass over one RMI per device.
	Pipeline = kernel.Pipeline
	// PipelineStage names one step of a fused pipeline (see MapStage,
	// BinaryStage, ReduceStage, BinaryReduceStage).
	PipelineStage = kernel.Stage
	// StageResult is one reduce stage's merged (accumulator, count)
	// outcome from Array.ApplyPipeline.
	StageResult = core.StageResult
)

// Builtin kernel names, usable with Array.Apply/Reduce and
// BlockStorage.ApplyAll/ReduceAll.
const (
	KernelFill   = kernel.Fill
	KernelScale  = kernel.Scale
	KernelAddC   = kernel.AddC
	KernelSum    = kernel.Sum
	KernelMinMax = kernel.MinMax
	KernelSumSq  = kernel.SumSq
	KernelAbsMax = kernel.AbsMax
	KernelAxpy   = kernel.Axpy
	KernelCopy   = kernel.Copy
	KernelMul    = kernel.Mul
	KernelDot    = kernel.Dot
)

// RegisterMapKernel installs a map kernel under a stable wire name.
// Like class registration, kernels register at init time in every
// process of a deployment (same binary ⇒ same registry).
func RegisterMapKernel(name string, k MapKernel) { kernel.RegisterMap(name, k) }

// MapStage names a registered map kernel as one pipeline stage.
func MapStage(name string) PipelineStage { return kernel.MapStage(name) }

// BinaryStage names a registered two-operand kernel as one pipeline
// stage; Array.ApplyPipeline supplies its operand array.
func BinaryStage(name string) PipelineStage { return kernel.BinaryStage(name) }

// ReduceStage names a registered reduction kernel as one pipeline
// stage, folding the chain's values as they stand at that point.
func ReduceStage(name string) PipelineStage { return kernel.ReduceStage(name) }

// BinaryReduceStage names a registered two-operand reduction kernel as
// one pipeline stage: it folds the chain's values against its operand
// array (supplied by Array.ApplyPipeline) without writing.
func BinaryReduceStage(name string) PipelineStage { return kernel.BinaryReduceStage(name) }

// RegisterPipeline installs a fused stage chain under a stable name
// (client-side: the chain itself travels inline); every stage must
// already be registered. See the "Kernel pipeline" chapter of the
// package doc.
func RegisterPipeline(name string, p Pipeline) { kernel.RegisterPipeline(name, p) }

// Jacobi runs the client-side Jacobi solver: sweeps read halo-expanded
// slabs to the client, compute locally, and write interiors back.
func Jacobi(ctx context.Context, a, b *Array, iters, clients int) (float64, error) {
	return core.Jacobi(ctx, a, b, iters, clients)
}

// JacobiOwner runs the owner-computes Jacobi solver: sweeps execute
// inside the storage devices on the slabs they hold, exchanging only
// halo planes device-to-device. Requires a plane-aligned PageMap
// (striped) and devices created with 2×PagesPerDevice capacity for the
// in-place scratch bank.
func JacobiOwner(ctx context.Context, a *Array, iters int) (float64, error) {
	return core.JacobiOwner(ctx, a, iters)
}

// JacobiOwnerSync is JacobiOwner with the fetch-then-sweep reference
// schedule (no halo/compute overlap) — the bitwise baseline the
// overlapped path is pinned against.
func JacobiOwnerSync(ctx context.Context, a *Array, iters int) (float64, error) {
	return core.JacobiOwnerSync(ctx, a, iters)
}

// PublishArray registers arr as a collection of persistent processes
// under the symbolic address base (§5: large data objects as collections
// of persistent processes).
func PublishArray(ctx context.Context, mgr *Manager, client *Client, metaMachine int, base Address, arr *Array) error {
	return core.PublishArray(ctx, mgr, client, metaMachine, base, arr)
}

// OpenArray reassembles a published array from its symbolic address,
// transparently reactivating passivated member processes.
func OpenArray(ctx context.Context, mgr *Manager, client *Client, base Address) (*Array, error) {
	return core.OpenArray(ctx, mgr, client, base)
}

// DeactivateArray passivates every member process of a published array.
func DeactivateArray(ctx context.Context, mgr *Manager, base Address, devices int) error {
	return core.DeactivateArray(ctx, mgr, base, devices)
}

// DestroyArray removes a published collection: processes, state, bindings.
func DestroyArray(ctx context.Context, mgr *Manager, base Address, devices int) error {
	return core.DestroyArray(ctx, mgr, base, devices)
}

// WaitAll waits for every future and returns the first error.
func WaitAll(ctx context.Context, futs []*Future) error { return rmi.WaitAll(ctx, futs) }

// NewPFFT spawns FFT worker processes (deep-copy SetGroup) for an
// n1×n2×n3 transform.
func NewPFFT(ctx context.Context, client *Client, machines []int, n1, n2, n3 int) (*PFFT, error) {
	return pfft.New(ctx, client, machines, n1, n2, n3)
}

// FFT3DLocal runs the sequential local 3D FFT (the correctness
// reference). sign=-1 forward, +1 normalized inverse.
func FFT3DLocal(x []complex128, n1, n2, n3, sign int) error {
	return fft.FFT3D(x, n1, n2, n3, sign)
}

// ParseAddress parses "oop://namespace/path".
func ParseAddress(s string) (Address, error) { return persist.ParseAddress(s) }

// MustParseAddress is ParseAddress that panics on error.
func MustParseAddress(s string) Address { return persist.MustParseAddress(s) }

// NewNameService creates the address directory process on machine m.
func NewNameService(ctx context.Context, client *Client, m int) (*NameService, error) {
	return persist.NewNameService(ctx, client, m)
}

// NewStore creates a passivation store process on machine m.
func NewStore(ctx context.Context, client *Client, m int) (*Store, error) {
	return persist.NewStore(ctx, client, m)
}

// NewManager creates a name service plus per-machine stores.
func NewManager(ctx context.Context, client *Client, nsMachine int, storeMachines []int) (*Manager, error) {
	return persist.NewManager(ctx, client, nsMachine, storeMachines)
}
