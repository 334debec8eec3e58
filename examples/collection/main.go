// Collection: the paper's §4 aggregate idiom ("FFT * fft[N]") on the
// typed Collection[T] surface — a distributed histogram computed by a
// collection of shard processes and assembled with combining reductions.
//
//	go run ./examples/collection
//
// It brings up a four-machine cluster in-process, spawns eight shard
// processes laid out cyclically over the machines (two per machine),
// broadcasts a strided slice of the data set to every shard
// concurrently, and then reduces: histogram bins (vector-add monoid),
// observation count (sum), and extrema (min/max) — each reduction one
// call, with the per-shard partials computed where the data lives and
// only scalars/bins crossing the network. Views (Slice, OnMachine) show
// sub-collection collectives without respawning anything.
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"oopp"
)

// shard is the server-side member object: it owns one partition of the
// observations and answers aggregate queries about it.
type shard struct {
	lo, hi float64
	bins   []int
	count  int
	min    float64
	max    float64
}

// histArgs is a shard's constructor argument: nbins bins over [lo, hi).
type histArgs struct {
	nbins  int
	lo, hi float64
}

var shardClass = oopp.RegisterClass("example.HistShard",
	oopp.CodecOf(
		func(e *oopp.Encoder, a histArgs) { e.PutInt(a.nbins); e.PutFloat64(a.lo); e.PutFloat64(a.hi) },
		func(d *oopp.Decoder) histArgs { return histArgs{d.Int(), d.Float64(), d.Float64()} }),
	func(env *oopp.Env, a histArgs) (*shard, error) {
		if a.nbins <= 0 || a.hi <= a.lo {
			return nil, fmt.Errorf("HistShard wants nbins > 0 and hi > lo, got %d [%v,%v)", a.nbins, a.lo, a.hi)
		}
		return &shard{lo: a.lo, hi: a.hi, bins: make([]int, a.nbins)}, nil
	})

// The codecs of the shards' arguments and results that are not scalars:
// the first two from the encoder's and decoder's own methods.
var (
	float64sCodec = oopp.CodecOf((*oopp.Encoder).PutFloat64s, (*oopp.Decoder).Float64s)
	intsCodec     = oopp.CodecOf((*oopp.Encoder).PutInts, (*oopp.Decoder).Ints)
	minMaxCodec   = oopp.CodecOf(
		func(e *oopp.Encoder, v [2]float64) { e.PutFloat64(v[0]); e.PutFloat64(v[1]) },
		func(d *oopp.Decoder) [2]float64 { return [2]float64{d.Float64(), d.Float64()} })
)

var (
	shardObserve = oopp.DeclareOp(shardClass, "observe", float64sCodec, oopp.VoidCodec, func(s *shard, env *oopp.Env, vals []float64) (struct{}, error) {
		for _, v := range vals {
			if s.count == 0 || v < s.min {
				s.min = v
			}
			if s.count == 0 || v > s.max {
				s.max = v
			}
			s.count++
			b := int(float64(len(s.bins)) * (v - s.lo) / (s.hi - s.lo))
			if b < 0 {
				b = 0
			}
			if b >= len(s.bins) {
				b = len(s.bins) - 1
			}
			s.bins[b]++
		}
		return struct{}{}, nil
	})
	shardHistogram = oopp.DeclareOp(shardClass, "histogram", oopp.VoidCodec, intsCodec, func(s *shard, env *oopp.Env, _ struct{}) ([]int, error) {
		return s.bins, nil
	})
	shardCount = oopp.DeclareOp(shardClass, "count", oopp.VoidCodec, oopp.IntCodec, func(s *shard, env *oopp.Env, _ struct{}) (int, error) {
		return s.count, nil
	})
	shardMinMax = oopp.DeclareOp(shardClass, "minmax", oopp.VoidCodec, minMaxCodec, func(s *shard, env *oopp.Env, _ struct{}) ([2]float64, error) {
		return [2]float64{s.min, s.max}, nil
	})
)

// decodeWith adapts a result codec to a reduction's per-member decoder.
func decodeWith[R any](c oopp.Codec[R]) func(oopp.Member, *oopp.Decoder) (R, error) {
	return func(_ oopp.Member, d *oopp.Decoder) (R, error) { return c.Get(d) }
}

// combineMinMax merges two (min, max) pairs.
func combineMinMax(a, b [2]float64) [2]float64 {
	if b[0] < a[0] {
		a[0] = b[0]
	}
	if b[1] > a[1] {
		a[1] = b[1]
	}
	return a
}

func main() {
	ctx := context.Background()

	const (
		machines = 4
		shards   = 8
		nbins    = 10
		samples  = 1 << 16
	)

	cl, err := oopp.NewLocalCluster(machines, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Shutdown()
	client := cl.Client()

	// A deterministic synthetic data set in [0, 1): the sum of two LCG
	// uniforms, halved — a triangular-ish distribution so the histogram
	// has a visible shape.
	data := make([]float64, samples)
	s := uint64(42)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / float64(1<<53)
	}
	for i := range data {
		data[i] = (next() + next()) / 2
	}

	// "HistShard * shard[8]" — the collection spawn, placed cyclically:
	// shard i lives on machine i mod 4.
	coll, err := oopp.SpawnClass(ctx, client, oopp.Cyclic(shards, machines), shardClass,
		func(oopp.Member) histArgs { return histArgs{nbins, 0, 1} })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spawned %d shards over %d machines (cyclic):", coll.Len(), machines)
	_ = coll.ForEach(func(m oopp.Member) error {
		fmt.Printf(" %d->m%d", m.Index, m.Machine)
		return nil
	})
	fmt.Println()

	// Concurrent broadcast: every shard receives its contiguous slice of
	// the data set in one windowed fan-out, completing in ~max(member
	// latency) rather than the sum.
	chunk := samples / shards
	if err := coll.Broadcast(ctx, shardObserve.Name(), func(m oopp.Member, e *oopp.Encoder) error {
		shardObserve.PutArgs(e, data[m.Index*chunk:(m.Index+1)*chunk])
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	// The §4 barrier: completion proves every shard processed its data.
	if err := coll.Barrier(ctx); err != nil {
		log.Fatal(err)
	}

	// Combining reductions: per-shard partials computed where the data
	// lives, merged client-side with a monoid.
	hist, err := oopp.Reduce(ctx, coll, shardHistogram.Name(), nil, decodeWith(intsCodec), sumInts)
	if err != nil {
		log.Fatal(err)
	}
	total, err := oopp.Reduce(ctx, coll, shardCount.Name(), nil, decodeWith(oopp.IntCodec), sumInt)
	if err != nil {
		log.Fatal(err)
	}
	mm, err := oopp.Reduce(ctx, coll, shardMinMax.Name(), nil, decodeWith(minMaxCodec), combineMinMax)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("observations: %d  min=%.4f max=%.4f\n", total, mm[0], mm[1])
	peak := 0
	for _, c := range hist {
		if c > peak {
			peak = c
		}
	}
	for b, c := range hist {
		bar := strings.Repeat("#", c*40/peak)
		fmt.Printf("  [%.1f,%.1f) %6d %s\n", float64(b)/nbins, float64(b+1)/nbins, c, bar)
	}

	// Sub-collection views share the member refs — no respawn: the first
	// half of the shards, and the shards owned by machine 1.
	firstHalf, err := oopp.Reduce(ctx, coll.Slice(0, shards/2), shardCount.Name(), nil, decodeWith(oopp.IntCodec), sumInt)
	if err != nil {
		log.Fatal(err)
	}
	onM1, err := oopp.Reduce(ctx, coll.OnMachine(1), shardCount.Name(), nil, decodeWith(oopp.IntCodec), sumInt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("view reductions: shards 0..%d hold %d, machine 1 holds %d\n", shards/2-1, firstHalf, onM1)

	// Owner-computes iteration: per-member work issued concurrently
	// (bounded by the collection window), results in member order.
	counts, err := oopp.MapIndexed(ctx, coll, func(ctx context.Context, m oopp.Member) (int, error) {
		return shardCount.Call(ctx, client, m.Ref, struct{}{})
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("per-shard counts: %v\n", counts)

	if err := coll.Destroy(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("collection destroyed")
}

// The monoids the reductions combine with.
func sumInt(a, b int) int { return a + b }

func sumInts(a, b []int) []int {
	out := make([]int, len(a))
	copy(out, a)
	for i, v := range b {
		out[i] += v
	}
	return out
}
