package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"oopp/internal/disk"
	"oopp/internal/metrics"
	"oopp/internal/serve"
	"oopp/internal/trace"
	"oopp/internal/transport"
)

// bg is the neutral context for call sites with no deadline.
var bg = context.Background()

func TestMain(m *testing.M) { os.Exit(leakChecked(m)) }

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

func TestNewLocalDefaults(t *testing.T) {
	c, err := NewLocal(3, 2)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer c.Shutdown()

	if c.Size() != 3 {
		t.Fatalf("size = %d", c.Size())
	}
	if len(c.dir) != 3 {
		t.Fatalf("addrs = %v", c.dir)
	}
	for i := 0; i < 3; i++ {
		m := c.Machine(i)
		if m.Machine() != i {
			t.Errorf("machine %d has id %d", i, m.Machine())
		}
		if len(m.Disks()) != 2 {
			t.Errorf("machine %d has %d disks", i, len(m.Disks()))
		}
		if m.Client() == nil || m.Server() == nil {
			t.Errorf("machine %d missing client/server", i)
		}
		if m.Env().Machines != 3 {
			t.Errorf("machine %d env.Machines = %d", i, m.Env().Machines)
		}
		for j := 0; j < 2; j++ {
			if _, ok := m.Env().Resource(fmt.Sprintf("disk/%d", j)); !ok {
				t.Errorf("machine %d missing disk/%d resource", i, j)
			}
		}
	}
}

func TestCrossMachinePing(t *testing.T) {
	c, err := NewLocal(4, 0)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer c.Shutdown()
	// Every machine pings every other through its own client.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if err := c.Machine(i).Client().Ping(bg, j); err != nil {
				t.Fatalf("machine %d -> %d ping: %v", i, j, err)
			}
		}
	}
}

func TestTCPCluster(t *testing.T) {
	c, err := New(Config{Machines: 2, Transport: transport.TCP{}})
	if err != nil {
		t.Fatalf("New tcp: %v", err)
	}
	defer c.Shutdown()
	if err := c.Client().Ping(bg, 1); err != nil {
		t.Fatalf("tcp ping: %v", err)
	}
}

func TestFileBackedDisks(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Machines: 2, DisksPerMachine: 1, DiskSize: 1 << 16, DataDir: dir})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Shutdown()
	d := c.Machine(1).Disks()[0]
	if err := d.WriteAt([]byte("persisted"), 0); err != nil {
		t.Fatalf("write: %v", err)
	}
	if c.Machine(1).Env().DataDir == "" {
		t.Error("file-backed machine has empty DataDir")
	}
}

func TestDiskModelApplied(t *testing.T) {
	model := disk.Model{Seek: 2 * time.Millisecond}
	c, err := New(Config{Machines: 1, DisksPerMachine: 1, DiskSize: 1 << 12, DiskModel: model})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Shutdown()
	d := c.Machine(0).Disks()[0]
	start := time.Now()
	buf := make([]byte, 8)
	if err := d.ReadAt(buf, 0); err != nil {
		t.Fatalf("read: %v", err)
	}
	if elapsed := time.Since(start); elapsed < model.Seek {
		t.Errorf("modeled seek not applied: %v", elapsed)
	}
}

func TestInvalidConfig(t *testing.T) {
	if _, err := New(Config{Machines: -1}); err == nil {
		t.Fatal("expected error for negative machine count")
	}
}

func TestDefaultsApplied(t *testing.T) {
	c, err := New(Config{DisksPerMachine: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer c.Shutdown()
	if c.Size() != 1 {
		t.Errorf("default machines = %d", c.Size())
	}
	if err := c.Client().Ping(bg, 0); err != nil {
		t.Errorf("default transport: %v", err)
	}
	if got := c.Machine(0).Disks()[1].Size(); got != 64<<20 {
		t.Errorf("default disk size = %d", got)
	}
}

func TestShutdownIdempotent(t *testing.T) {
	c, err := NewLocal(2, 1)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatalf("double shutdown: %v", err)
	}
}

// TestShutdownReleasesGoroutines brings a busy cluster up and down and
// checks the goroutine count returns near baseline — machine processes,
// object processes, and connection readers must all terminate.
func TestShutdownReleasesGoroutines(t *testing.T) {
	baseline := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		c, err := NewLocal(4, 1)
		if err != nil {
			t.Fatalf("NewLocal: %v", err)
		}
		// Create some traffic so conns and object goroutines exist.
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				if err := c.Machine(i).Client().Ping(bg, j); err != nil {
					t.Fatalf("ping: %v", err)
				}
			}
		}
		if err := c.Shutdown(); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	}
	// Allow the runtime a moment to retire exiting goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+5 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
}

func TestDirectory(t *testing.T) {
	c, err := NewLocal(2, 0)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer c.Shutdown()
	dir := c.Directory()
	if dir.Size() != 2 {
		t.Fatalf("directory size = %d", dir.Size())
	}
	a, err := dir.Addr(1)
	if err != nil || a == "" {
		t.Fatalf("Addr(1) = %q, %v", a, err)
	}
	if _, err := dir.Addr(7); err == nil {
		t.Fatal("expected error for unknown machine")
	}
}

// TestFailedBringUpLeavesNoDiskOpen: a machine whose second disk cannot be
// opened closes the first, and the machines before it are shut down, so
// no descriptor of this process still points into the data directory.
func TestFailedBringUpLeavesNoDiskOpen(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd:", err)
	}
	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "machine1", "disk1.img"), 0o755); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Machines: 2, DisksPerMachine: 2, DiskSize: 4096, DataDir: dir})
	if err == nil {
		c.Shutdown()
		t.Fatal("New opened a directory as a disk image")
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir) {
			t.Errorf("descriptor %s still open on %s", fd.Name(), target)
		}
	}
}

// TestCountersAttributeToMachines: n echo calls from machine 0's client to
// an object on machine 1 count in the registry of the machine that sent
// each message — n requests with their bytes on machine 0, whose server
// answers none, and n replies on machine 1. The debug plane ships machine
// 1's registry as it stands, and the process sum moves by exactly the
// two machines' sum.
func TestCountersAttributeToMachines(t *testing.T) {
	const n, size = 10, 64
	c, err := NewLocal(2, 0)
	if err != nil {
		t.Fatalf("NewLocal: %v", err)
	}
	defer c.Shutdown()
	client := c.Client()
	ref, err := client.New(bg, 1, serve.ClassWork, nil)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	counters := func(m int) metrics.Snapshot { return c.Machine(m).Env().Counters().Snapshot() }
	before0, before1, before := counters(0), counters(1), metrics.Default.Snapshot()
	for range n {
		d, err := client.Call(bg, ref, "echo", serve.EchoArgs(make([]byte, size)))
		if err != nil {
			t.Fatalf("echo: %v", err)
		}
		d.Release()
	}
	after1 := counters(1)
	d0, d1 := counters(0).Sub(before0), after1.Sub(before1)
	if d0.MessagesSent != n || d0.BytesSent < n*size {
		t.Errorf("machine 0 sent %d messages, %d bytes; want its client's %d requests of at least %d bytes and no reply", d0.MessagesSent, d0.BytesSent, n, size)
	}
	if d1.MessagesSent != n || d1.BytesSent < n*size {
		t.Errorf("machine 1 sent %d messages, %d bytes; want %d replies of at least %d bytes", d1.MessagesSent, d1.BytesSent, n, size)
	}
	if rest := metrics.Default.Snapshot().Sub(before).Sub(d0).Sub(d1); rest != (metrics.Snapshot{}) {
		t.Errorf("process sum moved by %+v beyond the two machines", rest)
	}
	buf, err := client.Debug(bg, 1)
	if err != nil {
		t.Fatalf("Debug: %v", err)
	}
	var snap trace.Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("decoding snapshot: %v", err)
	}
	if snap.Machine != 1 || snap.Counters != after1 {
		t.Errorf("machine %d's debug snapshot counts %+v, want machine 1's registry %+v", snap.Machine, snap.Counters, after1)
	}
}
