package collection

import (
	"errors"
	"testing"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

// killCollMachine closes machine m's server and waits for the client's
// heartbeat to record the down verdict.
func killCollMachine(t *testing.T, cl *cluster.Cluster, client *rmi.Client, m int) {
	t.Helper()
	cl.Machine(m).Server().Close()
	deadline := time.Now().Add(10 * time.Second)
	for client.MachineDown(m) == nil {
		if time.Now().After(deadline) {
			t.Fatalf("machine %d never marked down", m)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicatedViewsWithDeadMachine pins the failure shape of a
// replicated spawn: a broadcast over the whole collection reports only
// the slots on the dead machine, each replica slice keeps its own global
// indices, and the survivor view avoiding the dead machine still
// completes cleanly — the placement rotation is what makes that view
// exist.
func TestReplicatedViewsWithDeadMachine(t *testing.T) {
	cl, client := testCluster(t, 3)
	hb := client.StartHeartbeat(rmi.HeartbeatConfig{Interval: 20 * time.Millisecond, Misses: 3})
	defer hb.Stop()

	// 3 logical members × 2 replicas, replica-major: slots 0-2 are
	// replica 0 (machines 0,1,2), slots 3-5 replica 1 (machines 1,2,0).
	dist := OnMachines(0, 1, 2, 1, 2, 0)
	coll, err := SpawnNamed[*cell](bg, client, dist, "collection.Cell", cellEnc)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if coll.Len() != 6 {
		t.Fatalf("len %d, want 6", coll.Len())
	}

	killCollMachine(t, cl, client, 2)

	// Whole-collection broadcast: exactly the two slots on machine 2
	// fail (slot 2 in replica 0, slot 4 in replica 1), typed.
	err = coll.Broadcast(bg, "add", func(m Member, e *wire.Encoder) error {
		e.PutInt(1)
		return nil
	})
	if err == nil {
		t.Fatal("broadcast over dead machine succeeded")
	}
	if !errors.Is(err, rmi.ErrMachineDown) {
		t.Fatalf("broadcast error %v does not wrap ErrMachineDown", err)
	}
	if got := Failed(err); len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("Failed(err) = %v, want [2 4]", got)
	}
	if got := FailedMachines(err); len(got) != 1 || got[0] != 2 {
		t.Fatalf("FailedMachines(err) = %v, want [2]", got)
	}

	// Replica slices: each carries the dead machine at a different
	// logical position, and the failed indices stay *global* slot
	// indices — the property replica-aware callers route by.
	r0 := coll.Slice(0, 3)
	err = r0.Broadcast(bg, "add", func(m Member, e *wire.Encoder) error {
		e.PutInt(1)
		return nil
	})
	if got := Failed(err); len(got) != 1 || got[0] != 2 {
		t.Fatalf("replica 0 Failed(err) = %v, want [2]", got)
	}
	r1 := coll.Slice(3, 6)
	err = r1.Broadcast(bg, "add", func(m Member, e *wire.Encoder) error {
		e.PutInt(1)
		return nil
	})
	if got := Failed(err); len(got) != 1 || got[0] != 4 {
		t.Fatalf("replica 1 Failed(err) = %v, want [4]", got)
	}

	// The survivor view — replica 0's live slots plus replica 1's copy
	// of logical member 2 (slot 5, machine 0) — covers every logical
	// member without touching machine 2.
	survivors := coll.Select(0, 1, 5)
	if err := survivors.Broadcast(bg, "add", func(m Member, e *wire.Encoder) error {
		e.PutInt(1)
		return nil
	}); err != nil {
		t.Fatalf("survivor view broadcast: %v", err)
	}
}

// TestReplicateBeyondLiveMachines pins the degradation edge: a
// replicated placement that names a dead machine still validates (the
// descriptor cannot know liveness), and the spawn fails typed on the
// dead machine rather than silently thinning the replica set.
func TestReplicateBeyondLiveMachines(t *testing.T) {
	cl, client := testCluster(t, 3)
	hb := client.StartHeartbeat(rmi.HeartbeatConfig{Interval: 20 * time.Millisecond, Misses: 3})
	defer hb.Stop()

	killCollMachine(t, cl, client, 1)

	// 2 logical members × 3 replicas over 3 machines, replica-major:
	// valid by descriptor...
	dist := OnMachines(0, 1, 1, 2, 2, 0)
	if err := dist.Validate(); err != nil {
		t.Fatalf("validate with nominal pool: %v", err)
	}
	// ...but the spawn hits the dead machine and fails typed; partial
	// construction is rolled back, so no member leaks on the survivors.
	_, err := SpawnNamed[*cell](bg, client, dist, "collection.Cell", cellEnc)
	if err == nil {
		t.Fatal("spawn across a dead machine succeeded")
	}
	if !errors.Is(err, rmi.ErrMachineDown) {
		t.Fatalf("spawn error %v does not wrap ErrMachineDown", err)
	}
	for _, m := range []int{0, 2} {
		live, _, err := client.Stat(bg, m)
		if err != nil {
			t.Fatalf("stat %d: %v", m, err)
		}
		if live != 0 {
			t.Fatalf("machine %d has %d live objects after failed replicated spawn", m, live)
		}
	}

	// The resilient shape: replicate over the *live* machines only.
	live := OnMachines(0, 2, 2, 0)
	coll, err := SpawnNamed[*cell](bg, client, live, "collection.Cell", cellEnc)
	if err != nil {
		t.Fatalf("spawn on live machines: %v", err)
	}
	if err := coll.Broadcast(bg, "add", func(m Member, e *wire.Encoder) error {
		e.PutInt(1)
		return nil
	}); err != nil {
		t.Fatalf("broadcast on live replicas: %v", err)
	}
}
