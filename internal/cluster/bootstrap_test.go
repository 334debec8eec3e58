package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"oopp/internal/rmi"
	"oopp/internal/transport"
)

func TestFileRegistryPublishResolve(t *testing.T) {
	reg, err := NewFileRegistry(t.TempDir(), 3, 200*time.Millisecond)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	if reg.Size() != 3 {
		t.Fatalf("size = %d", reg.Size())
	}
	if err := reg.Publish(1, "127.0.0.1:9101"); err != nil {
		t.Fatalf("publish: %v", err)
	}
	addr, err := reg.Addr(1)
	if err != nil || addr != "127.0.0.1:9101" {
		t.Fatalf("Addr(1) = %q, %v", addr, err)
	}
	// Republish (restart at a new port) replaces the address.
	if err := reg.Publish(1, "127.0.0.1:9201"); err != nil {
		t.Fatalf("republish: %v", err)
	}
	if addr, _ = reg.Addr(1); addr != "127.0.0.1:9201" {
		t.Fatalf("Addr after republish = %q", addr)
	}
	// Unpublished machine times out; out-of-range fails.
	if _, err := reg.Addr(2); err == nil {
		t.Fatal("expected timeout for unpublished machine")
	}
	if _, err := reg.Addr(7); err == nil {
		t.Fatal("expected error for out-of-range machine")
	}
	if err := reg.Publish(9, "x"); err == nil {
		t.Fatal("expected error publishing out-of-range machine")
	}
}

func TestFileRegistryWaitsForLatePublish(t *testing.T) {
	reg, err := NewFileRegistry(t.TempDir(), 1, 2*time.Second)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		reg.Publish(0, "127.0.0.1:9100")
	}()
	addr, err := reg.Addr(0)
	if err != nil || addr != "127.0.0.1:9100" {
		t.Fatalf("Addr(0) = %q, %v (want the late-published address)", addr, err)
	}
}

// TestFileRegistryClaimIndex pins the join contract: concurrent
// claimers (separate registry instances over one shared dir, as
// separate OS processes would be) get distinct indices, claims grow the
// registry, and a static-size observer follows via Grow.
func TestFileRegistryClaimIndex(t *testing.T) {
	dir := t.TempDir()
	reg, err := NewFileRegistry(dir, 2, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	// Two joiners race from separate registry views of the same dir.
	other, err := NewFileRegistry(dir, 2, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("second registry: %v", err)
	}
	type claim struct {
		m   int
		err error
	}
	results := make(chan claim, 2)
	for _, r := range []*FileRegistry{reg, other} {
		go func(r *FileRegistry) {
			m, err := r.ClaimIndex()
			results <- claim{m, err}
		}(r)
	}
	a, b := <-results, <-results
	if a.err != nil || b.err != nil {
		t.Fatalf("claims: %v, %v", a.err, b.err)
	}
	if a.m == b.m {
		t.Fatalf("concurrent joiners got the same index %d", a.m)
	}
	for _, c := range []claim{a, b} {
		if c.m != 2 && c.m != 3 {
			t.Fatalf("claimed index %d, want 2 or 3 (static indices are reserved)", c.m)
		}
	}

	// Both claimers' registries grew; the joined indices are publishable.
	if reg.Size() < 3 || other.Size() < 3 {
		t.Fatalf("sizes after claims: %d, %d", reg.Size(), other.Size())
	}
	if err := reg.Publish(a.m, "127.0.0.1:9300"); err != nil {
		t.Fatalf("publish claimed index: %v", err)
	}
	// The claim placeholder is empty, so an unpublished claimed index
	// still times out rather than returning "".
	unpub := b.m
	if unpub == a.m {
		unpub = a.m ^ 1 // the other of {2,3}
	}
	if _, err := reg.Addr(unpub); err == nil {
		t.Fatal("empty claim placeholder resolved as an address")
	}

	// A static observer built at the original size follows via Grow.
	obs, err := NewFileRegistry(dir, 2, 100*time.Millisecond)
	if err != nil {
		t.Fatalf("observer registry: %v", err)
	}
	if _, err := obs.Addr(a.m); err == nil {
		t.Fatal("observer resolved an index beyond its size without Grow")
	}
	obs.Grow(4)
	if addr, err := obs.Addr(a.m); err != nil || addr != "127.0.0.1:9300" {
		t.Fatalf("observer after Grow: %q, %v", addr, err)
	}
	obs.Grow(2) // never shrinks
	if obs.Size() != 4 {
		t.Fatalf("Grow shrank the registry to %d", obs.Size())
	}
}

// TestJoinNode boots a one-node cluster and joins a second machine at
// runtime: the joiner claims index 1, publishes, and is immediately
// dialable by the original node's client.
func TestJoinNode(t *testing.T) {
	reg, err := NewFileRegistry(t.TempDir(), 1, 5*time.Second)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	n0, err := StartNode(NodeConfig{Machine: 0, Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatalf("node 0: %v", err)
	}
	defer n0.Close()

	joined, err := JoinNode(NodeConfig{Addr: "127.0.0.1:0", Registry: reg, Disks: 1, DiskSize: 1 << 16})
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	defer joined.Close()
	if joined.Machine() != 1 {
		t.Fatalf("joined machine = %d, want 1", joined.Machine())
	}
	if reg.Size() != 2 {
		t.Fatalf("registry size after join = %d", reg.Size())
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := WaitReady(ctx, n0.Env().Client, joined.Machine()); err != nil {
		t.Fatalf("newcomer not ready: %v", err)
	}
	if err := n0.Env().Client.Ping(ctx, joined.Machine()); err != nil {
		t.Fatalf("ping newcomer: %v", err)
	}
}

func TestParsePeers(t *testing.T) {
	got, err := ParsePeers("a:1, b:2,c:3")
	if err != nil || len(got) != 3 || got[1] != "b:2" {
		t.Fatalf("ParsePeers = %v, %v", got, err)
	}
	if got, err := ParsePeers(""); err != nil || got != nil {
		t.Fatalf("empty: %v, %v", got, err)
	}
	if _, err := ParsePeers("a:1,,c:3"); err == nil {
		t.Fatal("expected error for empty entry")
	}
}

// TestPeerDirectory: what each way of naming a cluster on a command line
// resolves to — a registry wins over a peer list, and its size comes from
// -machines or else from the peers — and that naming none is no directory
// rather than an error.
func TestPeerDirectory(t *testing.T) {
	reg := t.TempDir()
	for _, c := range []struct {
		name            string
		size            int
		peers, registry string
		want            string // "static", "registry", "none", or "error"
		machines        int
	}{
		{"peers only", 0, "a:1,b:2", "", "static", 2},
		{"peers and a size", 3, "a:1,b:2", "", "static", 2},
		{"registry without a machine count", 0, "", reg, "error", 0},
		{"registry with a machine count", 3, "", reg, "registry", 3},
		{"both, sized by the peers", 0, "a:1,b:2", reg, "registry", 2},
		{"both and a size", 4, "a:1,b:2", reg, "registry", 4},
		{"neither", 0, "", "", "none", 0},
		{"a malformed peer list", 0, "a:1,,b:2", "", "error", 0},
	} {
		dir, err := PeerDirectory(c.size, c.peers, c.registry)
		got := "error"
		switch dir.(type) {
		case rmi.StaticDirectory:
			got = "static"
		case *FileRegistry:
			got = "registry"
		case nil:
			if err == nil {
				got = "none"
			}
		}
		if got != c.want || (err == nil) != (c.want != "error") {
			t.Errorf("%s: %T, %v; want %s", c.name, dir, err, c.want)
			continue
		}
		if dir != nil && dir.Size() != c.machines {
			t.Errorf("%s: %d machines, want %d", c.name, dir.Size(), c.machines)
		}
	}
}

// TestNodesOverRegistry boots two Nodes as a registry-connected TCP
// cluster inside one process — the same wiring cmd/oppcluster and the
// e2e harness use across processes — and checks cross-machine traffic
// plus graceful drain.
func TestNodesOverRegistry(t *testing.T) {
	reg, err := NewFileRegistry(t.TempDir(), 2, 5*time.Second)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	var nodes []*Node
	for i := 0; i < 2; i++ {
		n, err := StartNode(NodeConfig{Machine: i, Addr: "127.0.0.1:0", Registry: reg, Disks: 1, DiskSize: 1 << 16})
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		defer n.Close()
		nodes = append(nodes, n)
	}
	if nodes[0].Env().Machines != 2 {
		t.Fatalf("env.Machines = %d", nodes[0].Env().Machines)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := WaitReady(ctx, nodes[0].Env().Client); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if err := nodes[1].Env().Client.Ping(ctx, 0); err != nil {
		t.Fatalf("cross ping: %v", err)
	}

	if err := nodes[1].Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := nodes[0].Env().Client.Ping(ctx, 1); !errors.Is(err, rmi.ErrDraining) {
		t.Fatalf("ping of draining node: %v, want ErrDraining", err)
	}
}

// TestWaitReadyBlocksUntilServerStarts pins the anti-race property: a
// client created before its server must not fail, just wait.
func TestWaitReadyBlocksUntilServerStarts(t *testing.T) {
	reg, err := NewFileRegistry(t.TempDir(), 1, 5*time.Second)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	client := rmi.NewClient(transport.TCP{}, reg)
	defer client.Close()

	started := make(chan *Node, 1)
	go func() {
		time.Sleep(150 * time.Millisecond)
		n, err := StartNode(NodeConfig{Machine: 0, Addr: "127.0.0.1:0", Registry: reg})
		if err != nil {
			t.Errorf("late node: %v", err)
			started <- nil
			return
		}
		started <- n
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := WaitReady(ctx, client, 0); err != nil {
		t.Fatalf("WaitReady across late start: %v", err)
	}
	if n := <-started; n != nil {
		n.Close()
	}
}

// TestWaitReadyRevivesDownMachine pins the revival path: a machine
// declared down by a heartbeat that has since stopped must come back
// through WaitReady's probe pings once the machine restarts — a down
// verdict is not a death sentence for the client.
func TestWaitReadyRevivesDownMachine(t *testing.T) {
	reg, err := NewFileRegistry(t.TempDir(), 1, 2*time.Second)
	if err != nil {
		t.Fatalf("registry: %v", err)
	}
	n, err := StartNode(NodeConfig{Machine: 0, Addr: "127.0.0.1:0", Registry: reg})
	if err != nil {
		t.Fatalf("node: %v", err)
	}
	addr := n.Addr()
	client := rmi.NewClient(transport.TCP{}, reg)
	defer client.Close()

	hb := client.StartHeartbeat(rmi.HeartbeatConfig{Interval: 25 * time.Millisecond, Misses: 2})
	n.Close() // machine dies
	deadline := time.Now().Add(10 * time.Second)
	for client.MachineDown(0) == nil && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	hb.Stop() // detector gone; the down mark stays
	if err := client.MachineDown(0); err == nil {
		t.Fatal("machine not marked down")
	}

	n2, err := StartNode(NodeConfig{Machine: 0, Addr: addr, Registry: reg})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer n2.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := WaitReady(ctx, client); err != nil {
		t.Fatalf("WaitReady did not revive the restarted machine: %v", err)
	}
	if err := client.MachineDown(0); err != nil {
		t.Fatalf("down mark survived a successful probe: %v", err)
	}
	// Normal (non-probe) traffic flows again.
	if err := client.Ping(ctx, 0); err != nil {
		t.Fatalf("ping after revival: %v", err)
	}
}

// TestWaitReadyReportsUnreachable: with no server ever starting,
// WaitReady must return each machine's failure at ctx expiry.
func TestWaitReadyReportsUnreachable(t *testing.T) {
	client := rmi.NewClient(transport.TCP{}, rmi.StaticDirectory{"127.0.0.1:1"})
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err := WaitReady(ctx, client)
	if err == nil {
		t.Fatal("WaitReady of dead address succeeded")
	}
	if !errors.Is(err, rmi.ErrMachineDown) {
		t.Fatalf("WaitReady error = %v, want to wrap ErrMachineDown", err)
	}
}
