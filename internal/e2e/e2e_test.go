package e2e

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"oopp/internal/collection"
	"oopp/internal/core"
	"oopp/internal/pagedev"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// TestMain dispatches on the process role: the harness re-execs this
// very binary as the cluster's server processes. The parent role is the
// one that runs tests, and the one checked for goroutines left behind.
func TestMain(m *testing.M) {
	if os.Getenv(RoleEnv) == RoleServer {
		os.Exit(ServerMain())
	}
	os.Exit(leakChecked(m))
}

// leakChecked runs the package's tests and then requires the goroutines
// they started to be gone: runtime.NumGoroutine gets 5 s to fall back to
// its count before the run, else the stacks are dumped and the run fails.
func leakChecked(m *testing.M) int {
	before := runtime.NumGoroutine()
	code := m.Run()
	for deadline := time.Now().Add(5 * time.Second); code == 0 && runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines after the tests, %d before them\n", runtime.NumGoroutine(), before)
			pprof.Lookup("goroutine").WriteTo(os.Stderr, 2)
			return 1
		}
	}
	return code
}

var bg = context.Background()

// testCtx bounds one e2e test: real processes and sockets mean a hang
// must become a failure, not a stuck CI job.
func testCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(bg, 90*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// decodeFloat reads a member's float64 reply and addFloat combines two —
// the decoder and monoid of the suite's collection.Reduce calls.
func decodeFloat(_ collection.Member, d *wire.Decoder) (float64, error) {
	v := d.Float64()
	return v, d.Err()
}

func addFloat(a, b float64) float64 { return a + b }

// downMachines lists, in order, the machines of cl that its client's
// failure detector has declared down.
func downMachines(cl *Cluster) []int {
	var down []int
	for m := 0; m < cl.n; m++ {
		if cl.Client.MachineDown(m) != nil {
			down = append(down, m)
		}
	}
	return down
}

// counter is the typed-RMI test class. Its remoteAdd method calls a
// counter on *another* machine through the server's outbound client —
// the peer-to-peer path (§4) that only exists when every server process
// has a working directory of its peers.
type counter struct{ n int }

// counterClass is constructed from the counter's start value.
var counterClass = rmi.RegisterClass("e2e.Counter", wire.Int,
	func(env *rmi.Env, n int) (*counter, error) { return &counter{n}, nil })

// remoteAddArgs is the argument of remoteAdd: a counter starting at base
// on machine m, added delta.
type remoteAddArgs struct{ m, base, delta int }

var remoteAddCodec = wire.CodecOf(
	func(e *wire.Encoder, a remoteAddArgs) { e.PutInt(a.m); e.PutInt(a.base); e.PutInt(a.delta) },
	func(d *wire.Decoder) remoteAddArgs { return remoteAddArgs{d.Int(), d.Int(), d.Int()} })

var (
	counterAdd = rmi.DeclareOp(counterClass, "add", wire.Int, wire.Int, func(c *counter, env *rmi.Env, d int) (int, error) {
		c.n += d
		return c.n, nil
	})
	counterGet = rmi.DeclareOp(counterClass, "get", wire.Void, wire.Int, func(c *counter, env *rmi.Env, _ struct{}) (int, error) {
		return c.n, nil
	})
	counterBoom = rmi.DeclareOp(counterClass, "boom", wire.Void, wire.Int, func(c *counter, env *rmi.Env, _ struct{}) (int, error) {
		return 0, fmt.Errorf("counter told to fail")
	})
	counterSlowAdd = rmi.DeclareOp(counterClass, "slowAdd", wire.Int, wire.Int, func(c *counter, env *rmi.Env, d int) (int, error) {
		time.Sleep(500 * time.Millisecond)
		c.n += d
		return c.n, nil
	})
	counterRemoteAdd = rmi.DeclareOp(counterClass, "remoteAdd", remoteAddCodec, wire.Int, func(c *counter, env *rmi.Env, a remoteAddArgs) (int, error) {
		// new(machine m) Counter(base); counter->add(delta) — issued from
		// inside a server process, to a peer server process.
		if env.Client == nil {
			return 0, fmt.Errorf("machine %d has no outbound client", env.Machine)
		}
		ref, err := counterClass.New(context.Background(), env.Client, a.m, a.base)
		if err != nil {
			return 0, err
		}
		sum, err := counterAdd.Call(context.Background(), env.Client, ref, a.delta)
		if err != nil {
			return 0, err
		}
		return sum, env.Client.Delete(context.Background(), ref)
	})
)

// shard is the collection test class: one float64 accumulator per
// member, packed encodings on the hot methods.
type shard struct{ value float64 }

func init() {
	shardClass := rmi.RegisterClass("e2e.Shard", wire.Float64, func(env *rmi.Env, v float64) (*shard, error) {
		return &shard{value: v}, nil
	})
	shardClass.Declare("add", func(s *shard, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		s.value += args.Float64()
		return args.Err()
	})
	shardClass.Declare("sum", func(s *shard, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		reply.PutFloat64(s.value)
		return nil
	})
}

func spawnShards(t *testing.T, ctx context.Context, client *rmi.Client, n, machines int) *collection.Collection[*shard] {
	t.Helper()
	coll, err := collection.SpawnNamed[*shard](ctx, client, collection.Cyclic(n, machines), "e2e.Shard",
		func(m collection.Member, e *wire.Encoder) error {
			e.PutFloat64(float64(m.Index))
			return nil
		})
	if err != nil {
		t.Fatalf("spawn shards: %v", err)
	}
	return coll
}

// TestTypedRMIOverTCP runs the typed surface against 4 real server
// processes: construction by type, typed invocation, async futures,
// remote errors, deletion — and the peer-to-peer hop where machine 1
// constructs and calls an object on machine 2.
func TestTypedRMIOverTCP(t *testing.T) {
	cl := StartCluster(t, 4)
	ctx := testCtx(t)
	c := cl.Client

	ref, err := counterClass.New(ctx, c, 1, 40)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if got, err := counterAdd.Call(ctx, c, ref, 2); err != nil || got != 42 {
		t.Fatalf("add = %d, %v; want 42", got, err)
	}

	// §4 split form: a pipelined burst of typed futures.
	futs := make([]rmi.TypedFuture[int], 16)
	for i := range futs {
		futs[i] = counterAdd.CallAsync(ctx, c, ref, 1)
	}
	last := 0
	for _, f := range futs {
		v, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("async add: %v", err)
		}
		last = v
	}
	if last != 42+16 {
		t.Fatalf("after 16 async adds: %d, want %d", last, 42+16)
	}

	// Remote failure crosses the wire typed.
	if _, err := counterBoom.Call(ctx, c, ref, struct{}{}); err == nil {
		t.Fatal("boom succeeded")
	} else {
		var re *rmi.RemoteError
		if !errors.As(err, &re) || re.Machine != 1 {
			t.Fatalf("boom error = %v, want RemoteError from machine 1", err)
		}
	}

	// Peer-to-peer: machine 1's counter builds and drives one on 2.
	if got, err := counterRemoteAdd.Call(ctx, c, ref, remoteAddArgs{2, 100, 11}); err != nil || got != 111 {
		t.Fatalf("remoteAdd via machine 1 -> 2 = %d, %v; want 111", got, err)
	}

	if err := c.Delete(ctx, ref); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := counterGet.Call(ctx, c, ref, struct{}{}); !errors.Is(err, rmi.ErrNoSuchObject) {
		t.Fatalf("call after delete: %v, want ErrNoSuchObject", err)
	}

	// Nothing leaked on any machine.
	for m := 0; m < 4; m++ {
		live, _, err := c.Stat(ctx, m)
		if err != nil {
			t.Fatalf("stat %d: %v", m, err)
		}
		if live != 0 {
			t.Errorf("machine %d still hosts %d objects", m, live)
		}
	}
}

// TestCollectionCollectivesOverTCP drives Collection[T] — concurrent
// spawn, broadcast, reduction, barrier, views, destroy — across 4
// server processes.
func TestCollectionCollectivesOverTCP(t *testing.T) {
	cl := StartCluster(t, 4)
	ctx := testCtx(t)
	coll := spawnShards(t, ctx, cl.Client, 8, 4)

	if err := coll.Broadcast(ctx, "add", func(m collection.Member, e *wire.Encoder) error {
		e.PutFloat64(0.5)
		return nil
	}); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if err := coll.Barrier(ctx); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	// sum over members: sum(i + 0.5 for i in 0..7) = 28 + 4 = 32.
	total, err := collection.Reduce(ctx, coll, "sum", nil, decodeFloat, addFloat)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	if total != 32 {
		t.Fatalf("reduce sum = %v, want 32", total)
	}
	// A machine view reduces only its members (cyclic: 1 and 5 on m1).
	viewTotal, err := collection.Reduce(ctx, coll.OnMachine(1), "sum", nil, decodeFloat, addFloat)
	if err != nil {
		t.Fatalf("view reduce: %v", err)
	}
	if viewTotal != 1+0.5+5+0.5 {
		t.Fatalf("machine-1 view sum = %v, want 7", viewTotal)
	}
	if err := coll.Destroy(ctx); err != nil {
		t.Fatalf("destroy: %v", err)
	}
	for m := 0; m < 4; m++ {
		live, _, err := cl.Client.Stat(ctx, m)
		if err != nil || live != 0 {
			t.Fatalf("machine %d after destroy: live=%d err=%v", m, live, err)
		}
	}
}

// TestBlockStorageOverTCP runs the §5 storage collective — device
// spawn, whole-storage fill, combining reduction, page I/O against the
// per-machine disks — over 4 server processes.
func TestBlockStorageOverTCP(t *testing.T) {
	cl := StartCluster(t, 4)
	ctx := testCtx(t)

	const pagesPer, n1, n2, n3 = 2, 8, 8, 4
	storage, err := core.CreateBlockStorage(ctx, cl.Client, []int{0, 1, 2, 3}, "e2estore", pagesPer, n1, n2, n3, 0)
	if err != nil {
		t.Fatalf("create storage: %v", err)
	}
	if storage.Len() != 4 {
		t.Fatalf("storage has %d devices", storage.Len())
	}
	// An array over every page of every device: fill, then sum.
	pm, err := core.NewRoundRobinMap(1, 1, 4*pagesPer, 4)
	if err != nil {
		t.Fatal(err)
	}
	arr, err := core.NewArray(ctx, storage, pm, n1, n2, 4*pagesPer*n3, n1, n2, n3)
	if err != nil {
		t.Fatalf("array: %v", err)
	}
	if err := arr.Fill(ctx, arr.Bounds(), 1.5); err != nil {
		t.Fatalf("fill: %v", err)
	}
	elems := float64(4 * pagesPer * n1 * n2 * n3)
	if sum, err := arr.Sum(ctx, arr.Bounds()); err != nil || sum != 1.5*elems {
		t.Fatalf("sum = %v, %v; want %v", sum, err, 1.5*elems)
	}

	// Page round trip against the device on machine 2.
	dev := storage.Device(2)
	page := pagedev.NewArrayPage(n1, n2, n3)
	for i := range page.Data {
		page.Data[i] = float64(i) * 0.25
	}
	if err := dev.WritePage(ctx, page, 1); err != nil {
		t.Fatalf("writepage: %v", err)
	}
	back := pagedev.NewArrayPage(n1, n2, n3)
	if err := dev.ReadPage(ctx, back, 1); err != nil {
		t.Fatalf("readpage: %v", err)
	}
	if !reflect.DeepEqual(page.Data, back.Data) {
		t.Fatal("page round trip over TCP corrupted data")
	}

	reads, writes, err := dev.Stats(ctx)
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if writes == 0 {
		t.Fatalf("stats: reads=%d writes=%d, want write traffic recorded", reads, writes)
	}
	if err := storage.Collection().Barrier(ctx); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	if err := storage.Close(ctx); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestKillOneServerFailureDetection is the suite's reason to exist: a
// server process is SIGKILLed under a live collection, the heartbeat
// detector declares the machine down with a typed error, a collective
// over the collection achieves partial success — every surviving member
// runs, the dead machine's members are reported by index and machine —
// and the survivors keep serving.
func TestKillOneServerFailureDetection(t *testing.T) {
	cl := StartCluster(t, 4)
	ctx := testCtx(t)
	coll := spawnShards(t, ctx, cl.Client, 8, 4)

	hb := cl.Client.StartHeartbeat(rmi.HeartbeatConfig{
		Interval: 50 * time.Millisecond,
		Timeout:  time.Second,
		Misses:   2,
	})
	defer hb.Stop()

	addAll := func() error {
		return coll.Broadcast(ctx, "add", func(m collection.Member, e *wire.Encoder) error {
			e.PutFloat64(1)
			return nil
		})
	}
	if err := addAll(); err != nil {
		t.Fatalf("broadcast before kill: %v", err)
	}

	cl.Kill(2)
	deadline := time.Now().Add(30 * time.Second)
	for len(downMachines(cl)) == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if down := downMachines(cl); len(down) != 1 || down[0] != 2 {
		t.Fatalf("heartbeat detected down=%v, want [2]", down)
	}
	if err := cl.Client.MachineDown(2); !errors.Is(err, rmi.ErrMachineDown) {
		t.Fatalf("MachineDown(2) = %v, want ErrMachineDown", err)
	}

	// Partial success: the broadcast reaches every survivor and reports
	// exactly the dead machine's members, typed.
	err := addAll()
	if err == nil {
		t.Fatal("broadcast with a dead machine succeeded")
	}
	if !errors.Is(err, rmi.ErrMachineDown) {
		t.Fatalf("broadcast error = %v, want to wrap ErrMachineDown", err)
	}
	var failed []int
	for _, e := range err.(interface{ Unwrap() []error }).Unwrap() {
		var me *rmi.MemberError
		if errors.As(e, &me) {
			failed = append(failed, me.Index)
		}
	}
	if !reflect.DeepEqual(failed, []int{2, 6}) {
		t.Fatalf("failed members %v, want [2 6] (machine 2's members)", failed)
	}
	if got := collection.FailedMachines(err); !reflect.DeepEqual(got, []int{2}) {
		t.Fatalf("FailedMachines(err) = %v, want [2]", got)
	}

	// Dead-machine calls fail fast (no timeout burn)...
	start := time.Now()
	if _, err := counterClass.New(ctx, cl.Client, 2, 0); !errors.Is(err, rmi.ErrMachineDown) {
		t.Fatalf("new on dead machine: %v, want ErrMachineDown", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("dead-machine call took %v, want fast fail", elapsed)
	}
	// ... while the survivors kept both adds: member i holds i + 2, and
	// machine m holds members m and m+4.
	for _, m := range []int{0, 1, 3} {
		want := float64(m+2) + float64(m+4+2)
		got, err := collection.Reduce(ctx, coll.OnMachine(m), "sum", nil, decodeFloat, addFloat)
		if err != nil {
			t.Fatalf("surviving machine %d reduce: %v", m, err)
		}
		if got != want {
			t.Fatalf("surviving machine %d sum = %v, want %v", m, got, want)
		}
	}
}

// TestKillOneServerReplicatedZeroLoss is the replication counterpart of
// TestKillOneServerFailureDetection: the same SIGKILL under a live
// array, but with 2-way replicated pages the outcome flips from
// "partial success with typed errors" to "full success, degraded
// replica count". Every read and write around the kill completes, the
// data survives bit-for-bit, and failover re-seeds the dead machine's
// pages onto the survivors' spare slots.
func TestKillOneServerReplicatedZeroLoss(t *testing.T) {
	cl := StartCluster(t, 4)
	ctx := testCtx(t)

	const N, n = 16, 4
	grid := N / n
	base, err := core.NewRoundRobinMap(grid, grid, grid, 4)
	if err != nil {
		t.Fatalf("pagemap: %v", err)
	}
	pm, err := core.NewReplicatedMap(base, 2)
	if err != nil {
		t.Fatalf("replicate: %v", err)
	}
	// Spare slots beyond the map's requirement are the failover budget:
	// the dead machine's 2·16 bank slots re-seed across 3 survivors.
	storage, err := core.CreateBlockStorage(ctx, cl.Client, []int{0, 1, 2, 3}, "e2erepl",
		pm.PagesPerDevice()+16, n, n, n, 0)
	if err != nil {
		t.Fatalf("create storage: %v", err)
	}
	arr, err := core.NewArray(ctx, storage, pm, N, N, N, n, n, n)
	if err != nil {
		t.Fatalf("array: %v", err)
	}

	full := core.Box(N, N, N)
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i%1013) * 0.5
	}
	if err := arr.Write(ctx, src, full); err != nil {
		t.Fatalf("write before kill: %v", err)
	}
	wantSum := 0.0
	for _, v := range src {
		wantSum += v
	}

	hb := cl.Client.StartHeartbeat(rmi.HeartbeatConfig{
		Interval: 50 * time.Millisecond,
		Timeout:  time.Second,
		Misses:   2,
	})
	defer hb.Stop()

	cl.Kill(2)
	deadline := time.Now().Add(30 * time.Second)
	for len(downMachines(cl)) == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if down := downMachines(cl); len(down) != 1 || down[0] != 2 {
		t.Fatalf("heartbeat detected down=%v, want [2]", down)
	}

	// Degraded service, zero failed calls: reads route around the dead
	// replica, writes land on the survivors and count the tolerated ones.
	got := make([]float64, full.Size())
	if err := arr.Read(ctx, got, full); err != nil {
		t.Fatalf("read with dead machine: %v", err)
	}
	if !reflect.DeepEqual(got, src) {
		t.Fatal("degraded read lost data")
	}
	for i := range src {
		src[i] += 1
	}
	if err := arr.Write(ctx, src, full); err != nil {
		t.Fatalf("write with dead machine: %v", err)
	}
	if arr.DegradedWrites() == 0 {
		t.Fatal("full-array write over a dead machine recorded no degraded pages")
	}
	wantSum += float64(full.Size())
	if sum, err := arr.Sum(ctx, full); err != nil || !close64(sum, wantSum) {
		t.Fatalf("degraded sum = %v, %v; want %v", sum, err, wantSum)
	}

	// Failover restores full replica count on the survivors: nothing
	// lost, the dead machine's pages re-seeded, no page left degraded.
	rep, err := arr.Failover(ctx, 2)
	if err != nil {
		t.Fatalf("failover: %v", err)
	}
	if len(rep.Lost) != 0 {
		t.Fatalf("failover lost pages %v, want none", rep.Lost)
	}
	if rep.Reseeded == 0 || rep.Degraded != 0 {
		t.Fatalf("failover report %+v, want re-seeds and zero degraded", rep)
	}
	if err := arr.Read(ctx, got, full); err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if !reflect.DeepEqual(got, src) {
		t.Fatal("failover lost data")
	}

	// Post-failover service is whole again: new writes fan out to full
	// replica sets with nothing tolerated.
	before := arr.DegradedWrites()
	if err := arr.Fill(ctx, full, 2.0); err != nil {
		t.Fatalf("fill after failover: %v", err)
	}
	if arr.DegradedWrites() != before {
		t.Fatal("post-failover write still degraded")
	}
	if sum, err := arr.Sum(ctx, full); err != nil || !close64(sum, 2*float64(full.Size())) {
		t.Fatalf("post-failover sum = %v, %v; want %v", sum, err, 2*float64(full.Size()))
	}
}

// close64 compares floats to accumulation tolerance.
func close64(got, want float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= 1e-9*(1+mathAbs(want))
}

func mathAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// TestRestartReconnectsThroughRegistry: a killed machine comes back as a
// new process on a new port; the registry republish plus the client's
// automatic reconnect route traffic to it with no client surgery. The
// old process's objects died with it — calls against stale refs say so.
func TestRestartReconnectsThroughRegistry(t *testing.T) {
	cl := StartCluster(t, 4)
	ctx := testCtx(t)

	ref, err := counterClass.New(ctx, cl.Client, 3, 7)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	oldAddr := cl.Addr(3)

	cl.Kill(3)
	cl.Restart(3) // waits for readiness through the registry

	if newAddr := cl.Addr(3); newAddr == oldAddr {
		t.Logf("machine 3 rebound the same address %s (fine, but the test wants to cover re-resolution)", newAddr)
	}
	// The pre-kill object is gone: its process died with the machine.
	// (Checked before constructing anything on the reborn server — object
	// ids restart from 1, so a stale ref could otherwise alias a new
	// object; remote pointers are not restart-safe by design.)
	if _, err := counterGet.Call(ctx, cl.Client, ref, struct{}{}); !errors.Is(err, rmi.ErrNoSuchObject) {
		t.Fatalf("stale ref call = %v, want ErrNoSuchObject", err)
	}
	// Fresh construction on the reborn machine works through the same
	// client — the dead connection was evicted and the registry
	// re-resolved.
	ref2, err := counterClass.New(ctx, cl.Client, 3, 1)
	if err != nil {
		t.Fatalf("New after restart: %v", err)
	}
	if got, err := counterAdd.Call(ctx, cl.Client, ref2, 1); err != nil || got != 2 {
		t.Fatalf("add after restart = %d, %v; want 2", got, err)
	}
	if err := cl.Client.Delete(ctx, ref2); err != nil {
		t.Fatalf("delete: %v", err)
	}
}

// TestGracefulShutdownUnderLoad: SIGTERM lands while a call is
// genuinely executing on the server — the drain must hold the process
// open until the call replies (the client receives the result across
// the shutdown), and the server still exits 0 (asserted by
// Cluster.Stop's cleanup).
func TestGracefulShutdownUnderLoad(t *testing.T) {
	cl := StartCluster(t, 2)
	ctx := testCtx(t)

	ref, err := counterClass.New(ctx, cl.Client, 1, 41)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Put a 500ms call in flight, then SIGTERM everything mid-execution.
	fut := counterSlowAdd.CallAsync(ctx, cl.Client, ref, 1)
	time.Sleep(100 * time.Millisecond)
	cl.Stop() // SIGTERM both machines; asserts exit 0 for each

	got, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("in-flight call lost across graceful shutdown: %v", err)
	}
	if got != 42 {
		t.Fatalf("in-flight result = %d, want 42", got)
	}
	// The machines are gone now: new work fails.
	if _, err := counterAdd.Call(ctx, cl.Client, ref, 1); err == nil {
		t.Fatal("call after shutdown succeeded")
	}
}

var _ = counterClass // the handle is used for registration side effects
