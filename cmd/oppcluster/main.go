// oppcluster deploys machines as real OS processes over TCP — the
// production shape of the paper's multicomputer. Everything above the
// transport (classes, stubs, experiments) is identical to the in-process
// simulation; only the Directory changes.
//
// Serve one machine per process (repeat on each host), with a static
// address list:
//
//	oppcluster -serve -machine 0 -addr 127.0.0.1:9100 -peers 127.0.0.1:9100,127.0.0.1:9101
//	oppcluster -serve -machine 1 -addr 127.0.0.1:9101 -peers 127.0.0.1:9100,127.0.0.1:9101
//
// or with a shared file registry and ephemeral ports (each server
// publishes its address; clients resolve through the same directory):
//
//	oppcluster -serve -machine 0 -machines 2 -registry /shared/reg
//	oppcluster -serve -machine 1 -machines 2 -registry /shared/reg
//
// Then run the demo client against the address list or registry:
//
//	oppcluster -demo -peers 127.0.0.1:9100,127.0.0.1:9101
//	oppcluster -demo -machines 2 -registry /shared/reg
//
// The cluster is elastic. A new machine joins by claiming the next free
// index from the registry (no index coordination needed), and a drill
// client migrates every array page off a machine before it is retired:
//
//	oppcluster -serve -join -machines 2 -registry /shared/reg
//	oppcluster -drain-pages 1 -machines 3 -registry /shared/reg
//
// A serving process shuts down gracefully on SIGINT/SIGTERM: it drains
// (finishes in-flight calls, refuses new ones with a typed error) for up
// to -drain, then closes. The exit status is 0 only for a clean
// boot-serve-shutdown cycle, so supervisors and CI can detect failed
// boots and failed drains.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/pagedev"
	"oopp/internal/rmem"
	"oopp/internal/rmi"
	_ "oopp/internal/serve" // register the serving-tier Work class
	"oopp/internal/transport"
)

func main() {
	serve := flag.Bool("serve", false, "run a machine server")
	demo := flag.Bool("demo", false, "run the demo client against the cluster")
	join := flag.Bool("join", false, "serve mode: claim the next free machine index from -registry instead of using -machine")
	drainPages := flag.Int("drain-pages", -1, "client mode: migrate every array page off machine N, verifying the data survives")
	machine := flag.Int("machine", 0, "this machine's index (serve mode)")
	machines := flag.Int("machines", 0, "cluster size (defaults to the number of -peers)")
	addr := flag.String("addr", "127.0.0.1:0", "listen address (serve mode)")
	peers := flag.String("peers", "", "comma-separated machine addresses, index order")
	registry := flag.String("registry", "", "shared registry directory (alternative to -peers)")
	disks := flag.Int("disks", 1, "simulated disks per machine (serve mode)")
	diskMB := flag.Int64("diskmb", 64, "simulated disk size in MiB")
	drain := flag.Duration("drain", 10*time.Second, "graceful drain budget on SIGINT/SIGTERM")
	admitHigh := flag.Int("admit-high", 0, "in-flight cap for high-priority calls (0 default, negative unbounded)")
	admitNormal := flag.Int("admit-normal", 0, "in-flight cap for normal-priority calls (0 default, negative unbounded)")
	admitBulk := flag.Int("admit-bulk", 0, "in-flight cap for bulk-priority calls (0 default, negative unbounded)")
	flag.Parse()
	admission := rmi.AdmissionConfig{Capacity: [rmi.NumPriorities]int{
		rmi.PrioHigh:   *admitHigh,
		rmi.PrioNormal: *admitNormal,
		rmi.PrioBulk:   *admitBulk,
	}}

	var err error
	switch {
	case *serve:
		err = runServer(*machine, *join, *machines, *addr, *peers, *registry, *disks, *diskMB<<20, *drain, admission)
	case *drainPages >= 0:
		err = runDrainPages(*drainPages, *machines, *peers, *registry)
	case *demo:
		err = runDemo(*machines, *peers, *registry)
	default:
		fmt.Fprintln(os.Stderr, "need -serve, -demo, or -drain-pages (see -h)")
		os.Exit(2)
	}
	if err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func runServer(machine int, join bool, machines int, addr, peers, registry string, disks int, diskSize int64, drain time.Duration, admission rmi.AdmissionConfig) error {
	dir, err := cluster.PeerDirectory(machines, peers, registry)
	if err != nil {
		return err
	}
	cfg := cluster.NodeConfig{
		Machine:   machine,
		Addr:      addr,
		Directory: dir,
		Machines:  machines,
		Disks:     disks,
		DiskSize:  diskSize,
		Admission: admission,
	}
	if reg, ok := dir.(*cluster.FileRegistry); ok {
		cfg.Registry = reg
	}
	// Install the handler before the server is reachable: a supervisor
	// that reacts to READY (or to the registry publish) with an immediate
	// SIGTERM must hit the graceful path, not the default disposition.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	var node *cluster.Node
	if join {
		// Joining a live cluster: the machine index comes from the
		// registry's atomic claim, not the -machine flag, and the node's
		// cluster size follows the grown registry.
		if cfg.Registry == nil {
			return fmt.Errorf("-join needs -registry (and -machines for the pre-join cluster size)")
		}
		cfg.Machines = 0
		node, err = cluster.JoinNode(cfg)
	} else {
		node, err = cluster.StartNode(cfg)
	}
	if err != nil {
		return fmt.Errorf("machine %d boot: %w", machine, err)
	}
	machine = node.Machine()
	log.Printf("machine %d serving on %s (classes: %s)", machine, node.Addr(),
		strings.Join(rmi.RegisteredClasses(), ", "))
	// READY on stdout is the machine's liveness line for supervisors and
	// the e2e harness; the address lets static-port-free deployments
	// discover where an ephemeral listen landed.
	fmt.Printf("READY machine=%d addr=%s\n", machine, node.Addr())

	s := <-sig
	log.Printf("machine %d: %v — draining (budget %v)", machine, s, drain)
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	drainErr := node.Drain(ctx)
	if drainErr != nil {
		log.Printf("machine %d drain incomplete: %v", machine, drainErr)
	}
	if err := node.Close(); err != nil {
		return fmt.Errorf("machine %d close: %w", machine, err)
	}
	if drainErr != nil {
		return fmt.Errorf("machine %d: %w", machine, drainErr)
	}
	log.Printf("machine %d shut down cleanly", machine)
	return nil
}

func runDemo(machines int, peers, registry string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	dir, err := cluster.PeerDirectory(machines, peers, registry)
	if err != nil {
		return err
	}
	if dir == nil || dir.Size() < 2 {
		return fmt.Errorf("demo needs at least 2 peers")
	}
	client := rmi.NewClient(transport.TCP{}, dir)
	defer client.Close()

	// Readiness barrier: don't race server start.
	if err := cluster.WaitReady(ctx, client); err != nil {
		return fmt.Errorf("cluster not ready: %w", err)
	}
	fmt.Printf("all %d machines reachable\n", dir.Size())

	// The §2 quickstart against real remote processes.
	dev, err := pagedev.NewDevice(ctx, client, 1, "pagefile", 10, 1024, pagedev.DiskPrivate)
	if err != nil {
		return err
	}
	page := make([]byte, 1024)
	for i := range page {
		page[i] = byte(i)
	}
	if err := dev.Write(ctx, 7, page); err != nil {
		return err
	}
	back, err := dev.Read(ctx, 7)
	if err != nil {
		return err
	}
	ok := true
	for i := range page {
		if back[i] != page[i] {
			ok = false
		}
	}
	fmt.Printf("page round trip through machine 1: identical=%v\n", ok)
	if err := dev.Close(ctx); err != nil {
		return err
	}

	data, err := rmem.NewFloat64Array(ctx, client, 1, 1024)
	if err != nil {
		return err
	}
	if err := data.Set(ctx, 7, 3.1415); err != nil {
		return err
	}
	v, err := data.Get(ctx, 7)
	if err != nil {
		return err
	}
	fmt.Printf("remote memory on machine 1: data[7] = %v\n", v)
	if err := data.Free(ctx); err != nil {
		return err
	}
	fmt.Println("demo complete")
	return nil
}

// runDrainPages is the elastic-cluster drill run as a client: build an
// array striped over every machine, fill it with a known pattern,
// migrate every page off the target machine (DrainMachine verifies the
// machine ends empty), and prove the contents survived bitwise.
func runDrainPages(target, machines int, peers, registry string) error {
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	dir, err := cluster.PeerDirectory(machines, peers, registry)
	if err != nil {
		return err
	}
	if dir == nil || dir.Size() < 2 {
		return fmt.Errorf("-drain-pages needs at least 2 peers")
	}
	if target < 0 || target >= dir.Size() {
		return fmt.Errorf("-drain-pages %d: no such machine (cluster size %d)", target, dir.Size())
	}
	client := rmi.NewClient(transport.TCP{}, dir)
	defer client.Close()
	if err := cluster.WaitReady(ctx, client); err != nil {
		return fmt.Errorf("cluster not ready: %w", err)
	}

	D := dir.Size()
	all := make([]int, D)
	for i := range all {
		all[i] = i
	}
	const N, n = 8, 2
	pm, err := core.NewPageMap("roundrobin", N/n, N/n, N/n, D)
	if err != nil {
		return err
	}
	// Double the page slots so surviving machines can absorb the
	// drained machine's pages.
	storage, err := core.CreateBlockStorage(ctx, client, all, "drainpages",
		2*pm.PagesPerDevice(), n, n, n, pagedev.DiskPrivate)
	if err != nil {
		return err
	}
	defer storage.Close(ctx)
	arr, err := core.NewArray(ctx, storage, pm, N, N, N, n, n, n)
	if err != nil {
		return err
	}
	want := make([]float64, N*N*N)
	for i := range want {
		want[i] = float64(i)
	}
	if err := arr.Write(ctx, want, arr.Bounds()); err != nil {
		return err
	}

	rep, err := arr.DrainMachine(ctx, target)
	if err != nil {
		return fmt.Errorf("draining machine %d: %w", target, err)
	}
	got := make([]float64, len(want))
	if err := arr.Read(ctx, got, arr.Bounds()); err != nil {
		return err
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("element %d = %v after drain, want %v", i, got[i], want[i])
		}
	}
	fmt.Printf("machine %d drained: %d pages (%d bytes) migrated, contents verified identical\n",
		target, rep.Moved, rep.Bytes)
	return nil
}
