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
	type cellArgs struct {
		value, stallMs int
		fail           bool
	}
	cellCodec := wire.CodecOf(
		func(e *wire.Encoder, a cellArgs) { e.PutInt(a.value); e.PutInt(a.stallMs); e.PutBool(a.fail) },
		func(d *wire.Decoder) cellArgs { return cellArgs{d.Int(), d.Int(), d.Bool()} })
	cellClass := rmi.RegisterClass("collection.Cell", cellCodec, func(env *rmi.Env, a cellArgs) (*cell, error) {
		if a.stallMs > 0 {
			time.Sleep(time.Duration(a.stallMs) * time.Millisecond)
		}
		if a.fail {
			return nil, fmt.Errorf("cell: constructor told to fail")
		}
		liveCells.Add(1)
		return &cell{value: a.value}, nil
	})
	cellClass.Declare("value", func(c *cell, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		reply.PutInt(c.value)
		return nil
	})
	cellClass.Declare("add", func(c *cell, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
		c.value += args.Int()
		return args.Err()
	})
	cellClass.Declare("failIfOdd", func(c *cell, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
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
	// The typed spawn passes the same args to every member.
	coll, err := SpawnClass(bg, client, Block(4, 2), taggedClass, func(Member) int { return 7 })
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	defer coll.Destroy(bg)
	sum, err := Reduce(bg, coll, taggedValue.Name(), nil, DecodeInt, SumInt)
	if err != nil {
		t.Fatalf("reduce: %v", err)
	}
	if sum != 4*7 {
		t.Fatalf("sum = %d, want %d", sum, 4*7)
	}

	// A spawn without args gives every member the zero value.
	bare, err := SpawnClass(bg, client, Block(2, 2), taggedClass, nil)
	if err != nil {
		t.Fatalf("spawn without args: %v", err)
	}
	defer bare.Destroy(bg)
	if sum, err := Reduce(bg, bare, taggedValue.Name(), nil, DecodeInt, SumInt); err != nil || sum != 0 {
		t.Fatalf("reduce without args = %d, %v", sum, err)
	}
}

// taggedCell holds the int it was constructed with.
type taggedCell struct{ v int }

var taggedClass = rmi.RegisterClass("collection.TaggedCell", wire.Int, func(env *rmi.Env, v int) (*taggedCell, error) {
	return &taggedCell{v}, nil
})

var taggedValue = taggedClass.Declare("value", func(c *taggedCell, env *rmi.Env, args *wire.Decoder, reply *wire.Encoder) error {
	reply.PutInt(c.v)
	return nil
})

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

	for m := 0; m < 3; m++ {
		if coll.OnMachine(m).Len() == 0 {
			t.Fatalf("no member on machine %d", m)
		}
	}
}

// failedMembers lists the member indices a collective's error names, in
// occurrence order, read off its joined rmi.MemberErrors.
func failedMembers(err error) (out []int) {
	walkMemberErrors(err, func(me *rmi.MemberError) { out = append(out, me.Index) })
	return out
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
	failed := failedMembers(err)
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
	failed = failedMembers(err)
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
	if failed := failedMembers(err); len(failed) != 1 || failed[0] != 2 {
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

var grumpyClass = rmi.RegisterClass("collection.GrumpyCell", wire.Void, func(env *rmi.Env, _ struct{}) (*grumpyCell, error) {
	if env.Machine == 1 {
		return nil, fmt.Errorf("grumpy: not on machine 1")
	}
	return &grumpyCell{}, nil
})

func TestTypedSpawnPartialFailureCleansUp(t *testing.T) {
	_, client := testCluster(t, 3)
	_, err := SpawnClass(bg, client, Cyclic(6, 3), grumpyClass, nil)
	if err == nil {
		t.Fatal("expected spawn failure")
	}
	if failed := failedMembers(err); fmt.Sprint(failed) != "[1 4]" {
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

// TestSmallWindowStillCompletes: a collection's collectives run at
// rmi.DefaultWindow; the engine under them completes over more members
// than a small window, here 2 for 9 members.
func TestSmallWindowStillCompletes(t *testing.T) {
	_, client := testCluster(t, 2)
	coll, err := SpawnNamed[*cell](bg, client, Cyclic(9, 2), "collection.Cell", cellEnc)
	if err != nil {
		t.Fatalf("spawn: %v", err)
	}
	defer coll.Destroy(bg)
	sum := 0
	err = rmi.FanOut(bg, client, coll.Refs(), "value", nil, func(_ int, d *wire.Decoder) error {
		sum += d.Int()
		return d.Err()
	}, 2)
	if err != nil {
		t.Fatalf("fan-out: %v", err)
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
