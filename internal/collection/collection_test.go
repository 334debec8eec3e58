package collection

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/rmi"
	"oopp/internal/wire"
)

var bg = context.Background()

// cell is the test member class: it holds one value and can be told to
// misbehave (fail a method, or stall its constructor so spawn-failure
// cleanup races against unresolved construction futures).
type cell struct {
	value int
}

var liveCells atomic.Int64

func init() {
	rmi.RegisterClass("collection.Cell", func(env *rmi.Env, args *wire.Decoder) (*cell, error) {
		value := args.Int()
		stallMs := args.Int()
		fail := args.Bool()
		if err := args.Err(); err != nil {
			return nil, err
		}
		if stallMs > 0 {
			time.Sleep(time.Duration(stallMs) * time.Millisecond)
		}
		if fail {
			return nil, fmt.Errorf("cell: constructor told to fail")
		}
		liveCells.Add(1)
		return &cell{value: value}, nil
	}).
		Method("value", func(c *cell, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutInt(c.value)
			return nil
		}).
		Method("add", func(c *cell, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			c.value += args.Int()
			return args.Err()
		}).
		Method("failIfOdd", func(c *cell, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			if c.value%2 == 1 {
				return fmt.Errorf("cell %d: odd", c.value)
			}
			return nil
		})
}

// cellEnc encodes a Cell constructor: value = member index, no stall,
// no failure.
func cellEnc(m Member, e *wire.Encoder) error {
	e.PutInt(m.Index)
	e.PutInt(0)
	e.PutBool(false)
	return nil
}

func testCluster(t *testing.T, machines int) (*cluster.Cluster, *rmi.Client) {
	t.Helper()
	cl, err := cluster.NewLocal(machines, 0)
	if err != nil {
		t.Fatalf("cluster: %v", err)
	}
	t.Cleanup(func() { cl.Shutdown() })
	return cl, cl.Client()
}

func TestDistributionPlacement(t *testing.T) {
	cases := []struct {
		name string
		d    Distribution
		want []int
	}{
		{"cyclic", Cyclic(6, 4), []int{0, 1, 2, 3, 0, 1}},
		{"block", Block(6, 3), []int{0, 0, 1, 1, 2, 2}},
		{"block-uneven", Block(5, 2), []int{0, 0, 0, 1, 1}},
		{"explicit", OnMachines(3, 1, 2), []int{3, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.d.Validate(); err != nil {
				t.Fatalf("validate: %v", err)
			}
			got := tc.d.MachineList()
			if len(got) != tc.d.Size() {
				t.Fatalf("size %d, list %d", tc.d.Size(), len(got))
			}
			for i, w := range tc.want {
				if got[i] != w {
					t.Fatalf("slot %d on machine %d, want %d (full: %v)", i, got[i], w, got)
				}
			}
		})
	}
	for _, bad := range []Distribution{
		{},           // zero value
		Cyclic(0, 4), // no members
		Block(4, 0),  // no machines
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("distribution %+v validated", bad)
		}
	}
}

func TestSpawnBroadcastReduce(t *testing.T) {
	_, client := testCluster(t, 4)
	coll, err := SpawnNamed[*cell](bg, client, Cyclic(8, 4), "collection.Cell", cellEnc)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	if coll.Len() != 8 {
		t.Fatalf("len %d", coll.Len())
	}
	for i := 0; i < coll.Len(); i++ {
		if m := coll.members[i]; m.Index != i || m.Machine != i%4 || m.Ref.Machine != i%4 {
			t.Fatalf("member %d = %+v", i, m)
		}
	}

	// Broadcast a per-member argument, then reduce the values: each cell
	// holds index + 10*index.
	if err := coll.Broadcast(bg, "add", func(m Member, e *wire.Encoder) error {
		e.PutInt(10 * m.Index)
		return nil
	}); err != nil {
		t.Fatalf("broadcast: %v", err)
	}
	if err := coll.Barrier(bg); err != nil {
		t.Fatalf("barrier: %v", err)
	}
	sum, err := Reduce(bg, coll, "value", nil, DecodeInt, SumInt)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	want := 0
	for i := 0; i < 8; i++ {
		want += 11 * i
	}
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}

	// CallAll sees members in order with their results.
	var got []int
	if err := coll.CallAll(bg, "value", nil, func(m Member, d *wire.Decoder) error {
		got = append(got, d.Int())
		return d.Err()
	}); err != nil {
		t.Fatalf("callAll: %v", err)
	}
	for i, v := range got {
		if v != 11*i {
			t.Fatalf("member %d value %d, want %d", i, v, 11*i)
		}
	}

	if err := coll.Destroy(bg); err != nil {
		t.Fatalf("destroy: %v", err)
	}
	for m := 0; m < 4; m++ {
		live, _, err := client.Stat(bg, m)
		if err != nil {
			t.Fatalf("stat: %v", err)
		}
		if live != 0 {
			t.Fatalf("machine %d has %d live objects after destroy", m, live)
		}
	}
}

func TestSpawnTypedTagged(t *testing.T) {
	_, client := testCluster(t, 2)
	// The tagged Spawn resolves the class from the type and passes the
	// same args to every member; taggedCell decodes them generically.
	coll, err := Spawn[*taggedCell](bg, client, Block(4, 2), 7)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	defer coll.Destroy(bg)
	sum, err := Reduce(bg, coll, "value", nil, DecodeInt, SumInt)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	if sum != 4*7 {
		t.Fatalf("sum = %d, want %d", sum, 4*7)
	}

	// A nullary tagged spawn still carries the empty tagged sequence the
	// constructor's Anys decode expects (like NewOn with no args).
	bare, err := Spawn[*taggedCell](bg, client, Block(2, 2))
	if err != nil {
		t.Fatalf("nullary spawn: %v", err)
	}
	defer bare.Destroy(bg)
	if sum, err := Reduce(bg, bare, "value", nil, DecodeInt, SumInt); err != nil || sum != 0 {
		t.Fatalf("nullary reduce = %d, %v", sum, err)
	}
}

type taggedCell struct{ v int }

func init() {
	rmi.RegisterClass("collection.TaggedCell", func(env *rmi.Env, args *wire.Decoder) (*taggedCell, error) {
		vals, err := args.Anys()
		if err != nil {
			return nil, err
		}
		c := &taggedCell{}
		if len(vals) == 1 {
			n, ok := vals[0].(int)
			if !ok {
				return nil, fmt.Errorf("TaggedCell wants an int, got %T", vals[0])
			}
			c.v = n
		}
		return c, nil
	}).
		Method("value", func(c *taggedCell, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
			reply.PutInt(c.v)
			return nil
		})
}

func TestViewsShareRefs(t *testing.T) {
	_, client := testCluster(t, 3)
	coll, err := SpawnNamed[*cell](bg, client, Cyclic(6, 3), "collection.Cell", cellEnc)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	defer coll.Destroy(bg)

	half := coll.Slice(0, 3)
	if half.Len() != 3 {
		t.Fatalf("slice len %d", half.Len())
	}
	if half.Ref(0) != coll.Ref(0) {
		t.Fatal("slice does not share refs")
	}
	// Mutate through the view; observe through the parent.
	if err := half.Broadcast(bg, "add", func(m Member, e *wire.Encoder) error {
		e.PutInt(100)
		return nil
	}); err != nil {
		t.Fatalf("view broadcast: %v", err)
	}
	sum, err := Reduce(bg, coll, "value", nil, DecodeInt, SumInt)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	want := 0 + 1 + 2 + 3 + 4 + 5 + 3*100
	if sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}

	m1 := coll.OnMachine(1)
	if m1.Len() != 2 {
		t.Fatalf("machine-1 view has %d members", m1.Len())
	}
	for i := 0; i < m1.Len(); i++ {
		if m1.members[i].Machine != 1 {
			t.Fatalf("machine-1 view member on machine %d", m1.members[i].Machine)
		}
	}
	// Member descriptors keep global indices in views.
	if got := []int{m1.members[0].Index, m1.members[1].Index}; got[0] != 1 || got[1] != 4 {
		t.Fatalf("machine-1 view indices %v", got)
	}

	if ms := coll.Machines(); len(ms) != 3 {
		t.Fatalf("machines %v", ms)
	}

	// Select picks arbitrary positions, in order, sharing refs and
	// keeping global indices — the addressing core.Array's kernel
	// collectives use to hit exactly the involved devices.
	sel := coll.Select(4, 0, 2)
	if sel.Len() != 3 {
		t.Fatalf("select len %d", sel.Len())
	}
	if sel.Ref(0) != coll.Ref(4) || sel.Ref(1) != coll.Ref(0) || sel.Ref(2) != coll.Ref(2) {
		t.Fatal("select does not share refs in order")
	}
	if got := []int{sel.members[0].Index, sel.members[1].Index, sel.members[2].Index}; got[0] != 4 || got[1] != 0 || got[2] != 2 {
		t.Fatalf("select view indices %v", got)
	}
	if empty := coll.Select(); empty.Len() != 0 {
		t.Fatalf("empty select has %d members", empty.Len())
	}
}

func TestCollectiveErrorsJoinAllMembers(t *testing.T) {
	_, client := testCluster(t, 2)
	coll, err := SpawnNamed[*cell](bg, client, Cyclic(6, 2), "collection.Cell", cellEnc)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	defer coll.Destroy(bg)

	// failIfOdd fails on members 1, 3, 5: the collective must report all
	// three (not abort at the first), with member indices attached.
	err = coll.Broadcast(bg, "failIfOdd", nil)
	if err == nil {
		t.Fatal("expected member failures")
	}
	failed := Failed(err)
	sort.Ints(failed)
	if fmt.Sprint(failed) != "[1 3 5]" {
		t.Fatalf("failed members %v, want [1 3 5]", failed)
	}
	var me *rmi.MemberError
	if !errors.As(err, &me) {
		t.Fatalf("error %v does not expose MemberError", err)
	}
	// A reduce across a failing member reports the failure too.
	if _, err := Reduce(bg, coll, "failIfOdd", nil, DecodeInt, SumInt); err == nil {
		t.Fatal("reduce swallowed member failure")
	}

	// Collectives over a view report GLOBAL member indices, not
	// positions within the view.
	err = coll.Slice(3, 6).Broadcast(bg, "failIfOdd", nil)
	if err == nil {
		t.Fatal("expected view member failures")
	}
	failed = Failed(err)
	sort.Ints(failed)
	if fmt.Sprint(failed) != "[3 5]" {
		t.Fatalf("view failed members %v, want [3 5]", failed)
	}
}

func TestSpawnPartialFailureCleansUp(t *testing.T) {
	_, client := testCluster(t, 4)
	liveCells.Store(0)

	// Member 2's constructor fails fast; the other members stall 20ms, so
	// their construction futures are still unresolved when the failure
	// surfaces. Cleanup must wait for them and delete every constructed
	// member — nothing may leak.
	_, err := SpawnNamed[*cell](bg, client, Cyclic(4, 4), "collection.Cell",
		func(m Member, e *wire.Encoder) error {
			e.PutInt(m.Index)
			if m.Index == 2 {
				e.PutInt(0)
				e.PutBool(true)
			} else {
				e.PutInt(20)
				e.PutBool(false)
			}
			return nil
		})
	if err == nil {
		t.Fatal("expected spawn failure")
	}
	if failed := Failed(err); len(failed) != 1 || failed[0] != 2 {
		t.Fatalf("failed members %v, want [2]", failed)
	}
	for m := 0; m < 4; m++ {
		live, _, err := client.Stat(bg, m)
		if err != nil {
			t.Fatalf("stat %d: %v", m, err)
		}
		if live != 0 {
			t.Fatalf("machine %d has %d live objects after failed spawn", m, live)
		}
	}
}

// grumpyCell fails its constructor on machine 1 — the typed-spawn
// partial-failure case.
type grumpyCell struct{}

func init() {
	rmi.RegisterClass("collection.GrumpyCell", func(env *rmi.Env, args *wire.Decoder) (*grumpyCell, error) {
		if env.Machine == 1 {
			return nil, fmt.Errorf("grumpy: not on machine 1")
		}
		return &grumpyCell{}, nil
	})
}

func TestTypedSpawnPartialFailureCleansUp(t *testing.T) {
	_, client := testCluster(t, 3)
	_, err := Spawn[*grumpyCell](bg, client, Cyclic(6, 3))
	if err == nil {
		t.Fatal("expected spawn failure")
	}
	if failed := Failed(err); fmt.Sprint(failed) != "[1 4]" {
		t.Fatalf("failed members %v, want [1 4]", failed)
	}
	for m := 0; m < 3; m++ {
		live, _, err := client.Stat(bg, m)
		if err != nil {
			t.Fatalf("stat %d: %v", m, err)
		}
		if live != 0 {
			t.Fatalf("machine %d has %d live objects after failed typed spawn", m, live)
		}
	}
}

func TestMapIndexedOwnerComputes(t *testing.T) {
	_, client := testCluster(t, 3)
	coll, err := SpawnNamed[*cell](bg, client, Cyclic(6, 3), "collection.Cell", cellEnc)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	defer coll.Destroy(bg)

	vals, err := MapIndexed(bg, coll, func(ctx context.Context, m Member) (int, error) {
		d, err := client.Call(ctx, m.Ref, "value", nil)
		if err != nil {
			return 0, err
		}
		defer d.Release()
		v := d.Int()
		return v + 1000*m.Machine, d.Err()
	})
	if err != nil {
		t.Fatalf("map: %v", err)
	}
	for i, v := range vals {
		if want := i + 1000*(i%3); v != want {
			t.Fatalf("member %d -> %d, want %d", i, v, want)
		}
	}
}

func TestSmallWindowStillCompletes(t *testing.T) {
	_, client := testCluster(t, 2)
	coll, err := SpawnNamed[*cell](bg, client, Cyclic(9, 2), "collection.Cell", cellEnc)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	defer coll.Destroy(bg)
	coll.SetWindow(2)
	sum, err := Reduce(bg, coll, "value", nil, DecodeInt, SumInt)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	if sum != 36 {
		t.Fatalf("sum = %d, want 36", sum)
	}
}

func TestReduceMonoids(t *testing.T) {
	if SumInt(1, 2) != 3 {
		t.Fatal("scalar monoid broken")
	}
}
