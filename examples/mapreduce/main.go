// Mapreduce: the paper's §6 claim that the framework "is rich enough to
// include ... map-reduce". Mapper processes are remote objects; the
// master scatters text shards with asynchronous remote calls (the map
// phase runs in parallel on all machines), then reduces the per-shard
// word counts it collects.
//
// The mapper class is defined and registered here, in the example — the
// framework needs nothing built in for new process types. Registration
// uses the typed Class[T] surface: method bodies receive *wordMapper
// directly, construction and calls go through the class's and methods'
// handles, and the per-mapper shard count comes back through a typed
// Invoke — no string names and no hand-rolled assertions at a call site.
//
//	go run ./examples/mapreduce
package main

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strings"

	"oopp"
)

// wordMapper is the server-side process: it counts words in the shards it
// is given and hands back its local table on demand.
type wordMapper struct {
	counts map[string]int
	shards int
}

// mapperClass is the typed handle — the "compiler output" for the class
// declaration. Everything the master does below goes through it or
// through the typed invocation helpers.
var mapperClass = oopp.RegisterClass("example.WordMapper",
	func(env *oopp.Env, args *oopp.Decoder) (*wordMapper, error) {
		return &wordMapper{counts: make(map[string]int)}, nil
	})

var (
	mapperMapShard = mapperClass.Declare("mapShard", func(m *wordMapper, env *oopp.Env, args *oopp.Decoder, reply *oopp.Encoder) error {
		text := args.String()
		if err := args.Err(); err != nil {
			return err
		}
		for _, w := range strings.Fields(text) {
			w = strings.ToLower(strings.Trim(w, ".,;:!?\"'()"))
			if w != "" {
				m.counts[w]++
			}
		}
		m.shards++
		return nil
	})
	// mapperShards replies in the tagged encoding so the master can read
	// it with a typed Invoke[int].
	mapperShards = mapperClass.Declare("shards", func(m *wordMapper, env *oopp.Env, args *oopp.Decoder, reply *oopp.Encoder) error {
		return reply.PutAny(m.shards)
	})
	mapperEmit = mapperClass.Declare("emit", func(m *wordMapper, env *oopp.Env, args *oopp.Decoder, reply *oopp.Encoder) error {
		words := make([]string, 0, len(m.counts))
		for w := range m.counts {
			words = append(words, w)
		}
		sort.Strings(words)
		reply.PutUvarint(uint64(len(words)))
		for _, w := range words {
			reply.PutString(w)
			reply.PutInt(m.counts[w])
		}
		return nil
	})
)

var corpus = strings.Repeat(
	"objects are processes and processes are objects "+
		"a parallel program is a collection of persistent processes "+
		"processes communicate by executing remote methods ", 64)

func main() {
	ctx := context.Background()
	const mappers = 4
	cl, err := oopp.NewLocalCluster(mappers, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Shutdown()
	client := cl.Client()

	// Spawn one mapper process per machine, through the typed handle.
	machines := make([]int, mappers)
	for i := range machines {
		machines[i] = i
	}
	group, err := oopp.SpawnClass(ctx, client, oopp.OnMachines(machines...), mapperClass, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer group.Destroy(ctx)

	// Shard the corpus and scatter shards round-robin with async remote
	// calls — the map phase.
	words := strings.Fields(corpus)
	shardSize := (len(words) + mappers - 1) / mappers
	var futs []*oopp.Future
	for i := 0; i < mappers; i++ {
		lo := i * shardSize
		hi := min(len(words), lo+shardSize)
		shard := strings.Join(words[lo:hi], " ")
		futs = append(futs, mapperMapShard.CallAsync(ctx, client, group.Ref(i), func(e *oopp.Encoder) error {
			e.PutString(shard)
			return nil
		}))
	}
	if err := oopp.WaitAll(ctx, futs); err != nil {
		log.Fatal(err)
	}

	// Typed invocation: each mapper reports how many shards it processed,
	// decoded straight into an int.
	for i := 0; i < mappers; i++ {
		n, err := oopp.Invoke[int](ctx, client, group.Ref(i), mapperShards)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mapper %d processed %d shard(s)\n", i, n)
	}

	// Reduce: collect every mapper's table and merge.
	total := make(map[string]int)
	if err := group.CallAll(ctx, mapperEmit.Name(), nil, func(_ oopp.Member, d *oopp.Decoder) error {
		n := d.Uvarint()
		for j := uint64(0); j < n; j++ {
			w := d.String()
			c := d.Int()
			total[w] += c
		}
		return d.Err()
	}); err != nil {
		log.Fatal(err)
	}

	// Report the top words.
	type wc struct {
		w string
		c int
	}
	out := make([]wc, 0, len(total))
	for w, c := range total {
		out = append(out, wc{w, c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].c != out[j].c {
			return out[i].c > out[j].c
		}
		return out[i].w < out[j].w
	})
	fmt.Printf("map-reduce over %d words with %d mapper processes\n", len(words), mappers)
	for i := 0; i < 5 && i < len(out); i++ {
		fmt.Printf("%3d  %s\n", out[i].c, out[i].w)
	}
}
