package core_test

import (
	"context"
	"math"
	"testing"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/elastic"
	"oopp/internal/pagedev"
	"oopp/internal/persist"
)

// bg is the neutral context for call sites with no deadline.
var bg = context.Background()

// TestPublishOpenArray registers an array as a collection of persistent
// processes, reopens it through its symbolic address, and verifies the
// data is reachable through the reassembled client.
func TestPublishOpenArray(t *testing.T) {
	const devices = 2
	const N, n = 8, 4
	cl, err := cluster.NewLocal(devices, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	client := cl.Client()

	mgr, err := persist.NewManager(bg, client, 0, []int{0, 1})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer mgr.Close(bg)

	pm, err := core.NewStripedMap(N/n, N/n, N/n, devices)
	if err != nil {
		t.Fatal(err)
	}
	storage, err := core.CreateBlockStorage(bg, client, []int{0, 1}, "pub", pm.PagesPerDevice(), n, n, n, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("storage: %v", err)
	}
	arr, err := core.NewArray(bg, storage, pm, N, N, N, n, n, n)
	if err != nil {
		t.Fatalf("array: %v", err)
	}

	full := core.Box(N, N, N)
	src := make([]float64, full.Size())
	for i := range src {
		src[i] = float64(i % 13)
	}
	if err := arr.Write(bg, src, full); err != nil {
		t.Fatalf("write: %v", err)
	}
	var want float64
	for _, v := range src {
		want += v
	}

	base := persist.MustParseAddress("oop://data/set/bigarray")
	if err := core.PublishArray(bg, mgr, client, 0, base, arr); err != nil {
		t.Fatalf("publish: %v", err)
	}

	// A different consumer reopens the array purely from the address.
	reopened, err := core.OpenArray(bg, mgr, client, base)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if l := reopened.Map().Name(); l != "striped" {
		t.Fatalf("reopened layout %q", l)
	}
	s, err := reopened.Sum(bg, full)
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s, want)
	}

	// Deactivate the whole collection: all processes terminate.
	if err := core.DeactivateArray(bg, mgr, base, devices); err != nil {
		t.Fatalf("deactivate: %v", err)
	}
	if _, err := arr.Sum(bg, full); err == nil {
		t.Fatal("device processes alive after collection deactivation")
	}

	// Reopen again: members reactivate transparently, data intact.
	revived, err := core.OpenArray(bg, mgr, client, base)
	if err != nil {
		t.Fatalf("open after deactivate: %v", err)
	}
	s, err = revived.Sum(bg, full)
	if err != nil {
		t.Fatalf("sum after reactivation: %v", err)
	}
	if math.Abs(s-want) > 1e-9 {
		t.Fatalf("sum after reactivation = %v, want %v", s, want)
	}

	// Destroy: addresses unbound, processes deleted, state discarded.
	if err := core.DestroyArray(bg, mgr, base, devices); err != nil {
		t.Fatalf("destroy: %v", err)
	}
	if _, err := core.OpenArray(bg, mgr, client, base); err == nil {
		t.Fatal("array reopenable after destroy")
	}
}

func TestOpenArrayMissing(t *testing.T) {
	cl, err := cluster.NewLocal(1, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer cl.Shutdown()
	mgr, err := persist.NewManager(bg, cl.Client(), 0, []int{0})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer mgr.Close(bg)
	if _, err := core.OpenArray(bg, mgr, cl.Client(), persist.MustParseAddress("oop://no/such/array")); err == nil {
		t.Fatal("opened a non-existent array")
	}
}

// TestCheckpointAfterMigrateRecovers: a checkpoint taken after pages moved
// recovers the array as it was checkpointed. The re-minted map travels in
// the descriptor; a recovery that addressed the moved pages by the nominal
// layout would read what their old slots held before the move.
func TestCheckpointAfterMigrateRecovers(t *testing.T) {
	cl, arr, stop := buildReplicated(t, "striped", 3, 1, 4, 4, 4, 2, 2, 2, 4)
	defer stop()
	fillPattern(t, arr, 1000)
	if rep, err := arr.MigratePages(bg, []elastic.Move{{From: 0, To: 2, Pages: 2}}); err != nil || rep.Moved != 2 {
		t.Fatalf("MigratePages: %+v, %v", rep, err)
	}
	want := fillPattern(t, arr, 5000)

	store, err := persist.NewStore(bg, cl.Client(), 0)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	if err := core.CheckpointArray(bg, arr, store, "ck/moved"); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	rec, err := core.RecoverArray(bg, cl.Client(), store, "ck/moved")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	defer rec.Storage().Close(bg)
	if name := rec.Map().Name(); name != "striped+resharded" {
		t.Errorf("recovered map is %q", name)
	}
	checkPattern(t, rec, want, "recovered after migration")
	if err := core.RemoveCheckpoint(bg, store, "ck/moved", 3); err != nil {
		t.Fatalf("remove checkpoint: %v", err)
	}
}

// TestPublishAfterFailoverReopens: an array published after a failover
// reopens on the chains the failover left, not on the nominal ones — the
// machine declared dead here is still up and still holds what it held
// before it was dropped, which is what a nominal chain would serve.
func TestPublishAfterFailoverReopens(t *testing.T) {
	cl, arr, stop := buildReplicated(t, "striped", 3, 2, 4, 4, 4, 2, 2, 2, 8)
	defer stop()
	fillPattern(t, arr, 1000)
	if rep, err := arr.Failover(bg, 1); err != nil || len(rep.Lost) != 0 || rep.Degraded != 0 {
		t.Fatalf("Failover: %+v, %v", rep, err)
	}
	want := fillPattern(t, arr, 5000)

	mgr, err := persist.NewManager(bg, cl.Client(), 0, []int{0, 1, 2})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer mgr.Close(bg)
	base := persist.MustParseAddress("oop://data/set/failedover")
	if err := core.PublishArray(bg, mgr, cl.Client(), 0, base, arr); err != nil {
		t.Fatalf("publish: %v", err)
	}
	reopened, err := core.OpenArray(bg, mgr, cl.Client(), base)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if name := reopened.Map().Name(); name != "striped+r2+failover" {
		t.Errorf("reopened map is %q", name)
	}
	if k := reopened.Map().Replicas(); k != 2 {
		t.Errorf("reopened map has k = %d", k)
	}
	// Reads rotate over a page's chain: several passes visit every replica.
	for pass := 0; pass < 4; pass++ {
		checkPattern(t, reopened, want, "reopened after failover")
	}
}
