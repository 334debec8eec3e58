package persist_test

import (
	"context"
	"testing"

	"oopp/internal/cluster"
	"oopp/internal/pagedev"
	"oopp/internal/persist"
	"oopp/internal/rmi"
)

// bg is the neutral context for call sites with no deadline.
var bg = context.Background()

func startCluster(t testing.TB, machines int) *cluster.Cluster {
	t.Helper()
	c, err := cluster.NewLocal(machines, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { c.Shutdown() })
	return c
}

func TestAddressParsing(t *testing.T) {
	good := []string{
		"oop://data/set/PageDevice/34",
		"oop://ns/x",
	}
	for _, s := range good {
		a, err := persist.ParseAddress(s)
		if err != nil {
			t.Errorf("%q: %v", s, err)
			continue
		}
		if a.String() != s {
			t.Errorf("round trip %q -> %q", s, a.String())
		}
		if a.IsZero() {
			t.Errorf("%q parsed to zero address", s)
		}
	}
	bad := []string{
		"",
		"http://data/set", // wrong scheme
		"oop://",          // nothing
		"oop:///x",        // empty namespace
		"oop://ns",        // no path
		"oop://ns/",       // empty path
		"oop://ns/a//b",   // empty path element
		"oop://ns/a/",     // trailing slash
	}
	for _, s := range bad {
		if _, err := persist.ParseAddress(s); err == nil {
			t.Errorf("%q: expected parse error", s)
		}
	}
	if !(persist.Address{}).IsZero() {
		t.Error("zero address not zero")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParseAddress did not panic")
		}
	}()
	persist.MustParseAddress("nope")
}

func TestNameServiceBindResolveList(t *testing.T) {
	c := startCluster(t, 2)
	ns, err := persist.NewNameService(bg, c.Client(), 0)
	if err != nil {
		t.Fatalf("name service: %v", err)
	}
	defer ns.Close(bg)

	ref := rmi.Ref{Machine: 1, Object: 42, Class: "pagedev.PageDevice"}
	addr := persist.MustParseAddress("oop://data/set/PageDevice/34")
	if err := ns.Bind(bg, addr, ref); err != nil {
		t.Fatalf("bind: %v", err)
	}
	got, err := ns.Resolve(bg, addr)
	if err != nil {
		t.Fatalf("resolve: %v", err)
	}
	if got != ref {
		t.Fatalf("resolve = %v, want %v", got, ref)
	}

	// Unbind.
	if err := ns.Unbind(bg, addr); err != nil {
		t.Fatalf("unbind: %v", err)
	}
	if _, err := ns.Resolve(bg, addr); err == nil {
		t.Fatal("resolve after unbind succeeded")
	}
	// Unbind of missing binding is not an error.
	if err := ns.Unbind(bg, addr); err != nil {
		t.Fatalf("double unbind: %v", err)
	}
	// Binding a malformed address is rejected server-side.
	if _, err := c.Client().Call(bg, ns.Ref(), "bind", nil); err == nil {
		t.Fatal("bind with no args accepted")
	}
}

func TestPassivateActivatePageDevice(t *testing.T) {
	c := startCluster(t, 2)
	client := c.Client()

	dev, err := pagedev.NewDevice(bg, client, 1, "persisted", 4, 256, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	payload := make([]byte, 256)
	for i := range payload {
		payload[i] = byte(i)
	}
	if err := dev.Write(bg, 2, payload); err != nil {
		t.Fatalf("write: %v", err)
	}

	st, err := persist.NewStore(bg, client, 1)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	defer st.Close(bg)

	const name = "oop://data/pd/0"
	if err := st.Passivate(bg, dev.Ref(), name); err != nil {
		t.Fatalf("passivate: %v", err)
	}
	// The process is gone.
	if _, err := dev.Read(bg, 2); err == nil {
		t.Fatal("device alive after passivation")
	}
	// Reactivate: a new process with the same state.
	ref, err := st.Activate(bg, name)
	if err != nil {
		t.Fatalf("activate: %v", err)
	}
	revived := pagedev.AttachDevice(client, ref)
	got, err := revived.Read(bg, 2)
	if err != nil {
		t.Fatalf("read revived: %v", err)
	}
	for i := range payload {
		if got[i] != payload[i] {
			t.Fatalf("revived byte %d = %d, want %d", i, got[i], payload[i])
		}
	}
	devName, err := revived.Name(bg)
	if err != nil || devName != "persisted" {
		t.Fatalf("revived name = %q, %v", devName, err)
	}
	if err := revived.Close(bg); err != nil {
		t.Fatalf("close revived: %v", err)
	}
	if err := st.Remove(bg, name); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := st.Activate(bg, name); err == nil {
		t.Fatal("activate after remove succeeded")
	}
}

func TestPassivateActivateArrayDeviceOnMachineDisk(t *testing.T) {
	// With a machine disk the page data survives on the disk itself; only
	// geometry is serialized.
	c, err := cluster.New(cluster.Config{Machines: 1, DisksPerMachine: 1, DiskSize: 1 << 16})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Shutdown()
	client := c.Client()

	dev, err := pagedev.NewArrayDevice(bg, client, 0, "onDisk", 2, 4, 4, 2, 0)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	if err := dev.FillPage(bg, 1, 3.5); err != nil {
		t.Fatalf("fill: %v", err)
	}

	st, err := persist.NewStore(bg, client, 0)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	defer st.Close(bg)
	const name = "oop://data/arr/0"
	if err := st.Passivate(bg, dev.Ref(), name); err != nil {
		t.Fatalf("passivate: %v", err)
	}
	ref, err := st.Activate(bg, name)
	if err != nil {
		t.Fatalf("activate: %v", err)
	}
	revived := pagedev.AttachArrayDevice(client, ref, 4, 4, 2)
	sum, err := revived.Sum(bg, 1)
	if err != nil {
		t.Fatalf("sum: %v", err)
	}
	if sum != 3.5*32 {
		t.Fatalf("sum = %v, want %v", sum, 3.5*32)
	}
}

func TestStoreDiskPersistenceAcrossStoreProcesses(t *testing.T) {
	// With a DataDir the blob survives the store process itself.
	dir := t.TempDir()
	c, err := cluster.New(cluster.Config{Machines: 1, DisksPerMachine: 1, DiskSize: 1 << 16, DataDir: dir})
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	defer c.Shutdown()
	client := c.Client()

	dev, err := pagedev.NewDevice(bg, client, 0, "durable", 2, 128, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	blob := make([]byte, 128)
	blob[0] = 0xEE
	if err := dev.Write(bg, 0, blob); err != nil {
		t.Fatalf("write: %v", err)
	}

	st1, err := persist.NewStore(bg, client, 0)
	if err != nil {
		t.Fatalf("store1: %v", err)
	}
	const name = "oop://data/durable/0"
	if err := st1.Passivate(bg, dev.Ref(), name); err != nil {
		t.Fatalf("passivate: %v", err)
	}
	if err := st1.Close(bg); err != nil {
		t.Fatalf("close store1: %v", err)
	}

	// A second store process on the same machine finds the blob on disk.
	st2, err := persist.NewStore(bg, client, 0)
	if err != nil {
		t.Fatalf("store2: %v", err)
	}
	defer st2.Close(bg)
	ref, err := st2.Activate(bg, name)
	if err != nil {
		t.Fatalf("blob lost across store processes: %v", err)
	}
	revived := pagedev.AttachDevice(client, ref)
	got, err := revived.Read(bg, 0)
	if err != nil || got[0] != 0xEE {
		t.Fatalf("revived read = %v, %v", got[0], err)
	}
}

func TestStoreErrors(t *testing.T) {
	c := startCluster(t, 2)
	client := c.Client()
	st, err := persist.NewStore(bg, client, 0)
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	defer st.Close(bg)

	// Passivating an object on another machine fails.
	dev, err := pagedev.NewDevice(bg, client, 1, "far", 1, 64, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	defer dev.Close(bg)
	if err := st.Passivate(bg, dev.Ref(), "oop://x/y"); err == nil {
		t.Fatal("cross-machine passivation accepted")
	}

	// Passivating a non-persistable class fails and the object survives.
	nsvc, err := persist.NewNameService(bg, client, 0)
	if err != nil {
		t.Fatalf("ns: %v", err)
	}
	defer nsvc.Close(bg)
	if err := st.Passivate(bg, nsvc.Ref(), "oop://x/ns"); err == nil {
		t.Fatal("non-persistable passivation accepted")
	}
	if err := nsvc.Bind(bg, persist.MustParseAddress("oop://a/b"), rmi.Ref{Machine: 0, Object: 1, Class: "c"}); err != nil {
		t.Fatalf("name service dead after failed passivation: %v", err)
	}

	// Activating a missing name fails.
	if _, err := st.Activate(bg, "oop://missing/name"); err == nil {
		t.Fatal("activate of missing blob accepted")
	}
	// Passivating a dangling ref fails.
	if err := st.Passivate(bg, rmi.Ref{Machine: 0, Object: 9999, Class: "x"}, "oop://x/z"); err == nil {
		t.Fatal("dangling passivation accepted")
	}
}

func TestManagerLifecycle(t *testing.T) {
	c := startCluster(t, 3)
	client := c.Client()

	mgr, err := persist.NewManager(bg, client, 0, []int{0, 1, 2})
	if err != nil {
		t.Fatalf("manager: %v", err)
	}
	defer mgr.Close(bg)

	// Create a device on machine 2 and register it.
	dev, err := pagedev.NewDevice(bg, client, 2, "managed", 2, 64, pagedev.DiskPrivate)
	if err != nil {
		t.Fatalf("device: %v", err)
	}
	data := make([]byte, 64)
	data[7] = 0x77
	if err := dev.Write(bg, 1, data); err != nil {
		t.Fatalf("write: %v", err)
	}
	addr := persist.MustParseAddress("oop://data/set/PageDevice/34")
	if err := mgr.Bind(bg, addr, dev.Ref()); err != nil {
		t.Fatalf("bind: %v", err)
	}

	// Live resolve returns the same process.
	ref, err := mgr.Resolve(bg, addr)
	if err != nil || ref != dev.Ref() {
		t.Fatalf("live resolve = %v, %v", ref, err)
	}

	// Deactivate; the process terminates.
	if err := mgr.Deactivate(bg, addr); err != nil {
		t.Fatalf("deactivate: %v", err)
	}
	if _, err := dev.Read(bg, 1); err == nil {
		t.Fatal("process alive after deactivation")
	}

	// Resolve transparently reactivates.
	ref2, err := mgr.Resolve(bg, addr)
	if err != nil {
		t.Fatalf("resolve-reactivate: %v", err)
	}
	if ref2.Object == 0 || ref2.Machine != 2 {
		t.Fatalf("reactivated ref = %v", ref2)
	}
	revived := pagedev.AttachDevice(client, ref2)
	got, err := revived.Read(bg, 1)
	if err != nil || got[7] != 0x77 {
		t.Fatalf("revived state: %v, %v", got[7], err)
	}
	// Second resolve returns the same live ref (no double activation).
	ref3, err := mgr.Resolve(bg, addr)
	if err != nil || ref3 != ref2 {
		t.Fatalf("second resolve = %v, %v", ref3, err)
	}

	// Destroy removes everything.
	if err := mgr.Destroy(bg, addr); err != nil {
		t.Fatalf("destroy: %v", err)
	}
	if _, err := mgr.Resolve(bg, addr); err == nil {
		t.Fatal("resolve after destroy succeeded")
	}
	if _, err := revived.Read(bg, 1); err == nil {
		t.Fatal("process alive after destroy")
	}
	st, err := mgr.StoreOn(bg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Activate(bg, addr.String()); err == nil {
		t.Fatal("blob survives destroy")
	}

	if _, err := mgr.StoreOn(bg, 9); err == nil {
		t.Fatal("store on unknown machine")
	}
}

// TestRestorableClassesRegistry: both device classes register a
// restorer, so registering either a second time panics.
func TestRestorableClassesRegistry(t *testing.T) {
	for _, class := range []string{pagedev.ClassPageDevice, pagedev.ClassArrayPageDevice} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("class %s not registered as restorable: a second restorer did not panic", class)
				}
			}()
			persist.RegisterRestorable(class, nil)
		}()
	}
}
