// Mapreduce: the paper's §6 claim that the framework "is rich enough to
// include ... map-reduce". Mapper processes are remote objects; the
// master scatters text shards with asynchronous remote calls (the map
// phase runs in parallel on all machines), then reduces the per-shard
// word counts it collects.
//
// The mapper class is defined and registered here, in the example — the
// framework needs nothing built in for new process types. Registration
// uses the typed Class[T, C] surface: each method is declared once with the
// codecs of its argument and its result (DeclareOp), its body receives
// *wordMapper and decoded values, and construction and calls go through
// the class's and methods' handles — no string names, and no byte written
// by hand at a call site.
//
//	go run ./examples/mapreduce
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"slices"
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
// through the methods' Ops.
var mapperClass = oopp.RegisterClass("example.WordMapper", oopp.VoidCodec,
	func(env *oopp.Env, _ struct{}) (*wordMapper, error) {
		return &wordMapper{counts: make(map[string]int)}, nil
	})

// tableCodec is a mapper's word counts on the wire: the number of words,
// then each word, in order, with its count.
var tableCodec = oopp.CodecOf(
	func(e *oopp.Encoder, counts map[string]int) {
		words := slices.Sorted(maps.Keys(counts))
		e.PutUvarint(uint64(len(words)))
		for _, w := range words {
			e.PutString(w)
			e.PutInt(counts[w])
		}
	},
	func(d *oopp.Decoder) map[string]int {
		counts := make(map[string]int)
		for n := d.Uvarint(); n > 0 && d.Err() == nil; n-- {
			w := d.String()
			counts[w] += d.Int()
		}
		return counts
	})

var (
	mapperMapShard = oopp.DeclareOp(mapperClass, "mapShard", oopp.StringCodec, oopp.VoidCodec, func(m *wordMapper, env *oopp.Env, text string) (struct{}, error) {
		for _, w := range strings.Fields(text) {
			w = strings.ToLower(strings.Trim(w, ".,;:!?\"'()"))
			if w != "" {
				m.counts[w]++
			}
		}
		m.shards++
		return struct{}{}, nil
	})
	mapperShards = oopp.DeclareOp(mapperClass, "shards", oopp.VoidCodec, oopp.IntCodec, func(m *wordMapper, env *oopp.Env, _ struct{}) (int, error) {
		return m.shards, nil
	})
	mapperEmit = oopp.DeclareOp(mapperClass, "emit", oopp.VoidCodec, tableCodec, func(m *wordMapper, env *oopp.Env, _ struct{}) (map[string]int, error) {
		return m.counts, nil
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
		futs = append(futs, mapperMapShard.CallAsync(ctx, client, group.Ref(i), shard).Future)
	}
	if err := oopp.WaitAll(ctx, futs); err != nil {
		log.Fatal(err)
	}

	// Typed invocation: each mapper reports how many shards it processed,
	// decoded straight into an int.
	for i := 0; i < mappers; i++ {
		n, err := mapperShards.Call(ctx, client, group.Ref(i), struct{}{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("mapper %d processed %d shard(s)\n", i, n)
	}

	// Reduce: collect every mapper's table and merge.
	total := make(map[string]int)
	if err := group.CallAll(ctx, mapperEmit.Name(), nil, func(_ oopp.Member, d *oopp.Decoder) error {
		counts, err := tableCodec.Get(d)
		for w, c := range counts {
			total[w] += c
		}
		return err
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
