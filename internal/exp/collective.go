package exp

import (
	"fmt"

	"oopp/internal/collection"
)

// E12 — §4: a collection of N objects operated on collectively should pay
// ~max(member latency) per collective, not the sum. The old sequential
// member-by-member loop is the §2 baseline (one completed round trip per
// member before the next is issued); Collection.Broadcast issues the
// member calls concurrently through the async lanes with a bounded
// window, and Reduce adds client-side combining on top. Under the modeled
// link the speedup at N members should approach N (until the window or
// the client core saturates).
var e12 = Experiment{
	ID:    "E12",
	Title: "Collective broadcast and reduce vs sequential member calls",
	Claim: "§4: operating on a collection of objects costs ~max(member latency)" +
		" when the member calls are issued concurrently, vs the sum when issued sequentially",
	Columns: []string{"members", "seq µs/op", "bcast µs/op", "speedup", "reduce µs/op",
		"seq allocs/op", "bcast allocs/op"},
	pinned: map[string]rule{"members": label, "seq allocs/op": ceiling, "bcast allocs/op": ceiling},
	run: func(x *run) error {
		const machines, iters = 8, 30
		cl, err := x.modeled(machines)
		if err != nil {
			return err
		}
		client := cl.Client()

		for _, size := range []int{1, 2, 4, 8, 16, 32} {
			coll, err := collection.SpawnClass(bg, client, collection.Cyclic(size, machines), echoClass, nil)
			if err != nil {
				return err
			}
			// The sequential baseline drives the very same member objects,
			// one completed round trip after the other (§2 semantics).
			seq, err := measure(3, iters, func() error {
				return coll.ForEach(func(m collection.Member) error {
					_, err := echoNoop.Call(bg, client, m.Ref, struct{}{})
					return err
				})
			})
			if err != nil {
				return err
			}
			bcast, err := measure(3, iters, func() error { return coll.Broadcast(bg, echoNoop.Name(), nil) })
			if err != nil {
				return err
			}
			red, err := measure(3, iters, func() error {
				n, err := collection.Reduce(bg, coll, echoOne.Name(), nil, collection.DecodeInt, collection.SumInt)
				if err == nil && n != size {
					err = fmt.Errorf("E12: reduce over %d members returned %d", size, n)
				}
				return err
			})
			if err != nil {
				return err
			}
			x.AddRow(fmt.Sprintf("%d", size), usPrec(seq.per), usPrec(bcast.per),
				fmt.Sprintf("%.2f", float64(seq.per)/float64(bcast.per)), usPrec(red.per),
				fmt.Sprintf("%.1f", seq.allocs), fmt.Sprintf("%.1f", bcast.allocs))
			if err := coll.Destroy(bg); err != nil {
				return err
			}
		}
		x.Note("expected shape: speedup ~N while N <= window; broadcast µs/op stays near one RTT instead of N RTTs")
		x.Note("bcast allocs/op is 2N+1: each member call is an rmi.CallAsync, whose Future and the done channel it closes once are two heap objects, and SplitLoop's ring of outstanding futures is the one more")
		x.Note("a broadcast's N requests are N messages but leave in one write per machine touched (min(N, 8) here): the issue burst is held on each machine's connection, in storage the connection keeps, and flushed once before the first wait — over TCP that is one syscall and one segment a machine, on this modeled link each message is still handed over and charged by itself; the N replies come back the same way, one write per machine, sent by the member that answers last")
		x.Note("seq allocs/op is 0 because a synchronous Call waits on a pooled, reusable one-slot waiter where CallAsync hands its caller a Future")
		return nil
	},
}
