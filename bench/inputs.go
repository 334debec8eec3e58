package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"time"
)

// Everything a workload feeds the program is generated here from the run's
// seed; the program sees only the generated inputs.

// rngFor returns the generator of one input stream of one workload.
func rngFor(seed uint64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewPCG(seed, h.Sum64()))
}

// genPayload returns n seeded bytes.
func genPayload(r *rand.Rand, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint32())
	}
	return b
}

// genReals returns n seeded values in [-1, 1).
func genReals(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*r.Float64() - 1
	}
	return v
}

// dyadics are the values owner_compute arrays hold: powers of two of
// either sign, so that sums, dots and the scale/axpy chain stay exact in
// float64 and the expected results have closed forms.
var dyadics = [8]float64{0.5, -0.5, 1, -1, 2, -2, 1, -1}

func genDyadics(r *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := 0; i < n; {
		w := r.Uint64()
		for k := 0; k < 16 && i < n; k++ {
			v[i] = dyadics[w&7]
			w >>= 3
			i++
		}
	}
	return v
}

// genComplex returns n seeded complex values with parts in [-1, 1).
func genComplex(r *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(2*r.Float64()-1, 2*r.Float64()-1)
	}
	return v
}

// The serve_mix request kinds, in the ratio 8 : 1 : 1.
const (
	kindEcho = iota // 64 B echo, normal class
	kindSpin        // 100 µs on-CPU method, normal class
	kindPing        // empty ping, high class
)

// arrival is one scheduled request of the open loop.
type arrival struct {
	due     time.Duration // from the start of the step
	kind    uint8
	machine uint8
}

// genSchedule fixes an open-loop step up front: independent users, so
// exponential gaps at the given rate, with the request mix and the target
// machine drawn from the same seeded stream.
func genSchedule(r *rand.Rand, rate float64, dur time.Duration) []arrival {
	sched := make([]arrival, 0, int(rate*dur.Seconds())+64)
	var t float64 // seconds
	for {
		t += r.ExpFloat64() / rate
		due := time.Duration(t * float64(time.Second))
		if due >= dur {
			return sched
		}
		a := arrival{due: due, kind: kindEcho, machine: uint8(r.IntN(machines))}
		switch r.IntN(10) {
		case 8:
			a.kind = kindSpin
		case 9:
			a.kind = kindPing
		}
		sched = append(sched, a)
	}
}

// Hash helpers: the tests pin that one seed reproduces its inputs byte for
// byte and another seed does not.

func hashFloats(h hash.Hash, v []float64) {
	var b [8]byte
	for _, x := range v {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
}

func hashComplex(h hash.Hash, v []complex128) {
	for _, x := range v {
		hashFloats(h, []float64{real(x), imag(x)})
	}
}

func hashSchedule(h hash.Hash, s []arrival) {
	var b [10]byte
	for _, a := range s {
		binary.LittleEndian.PutUint64(b[:8], uint64(a.due))
		b[8], b[9] = a.kind, a.machine
		h.Write(b[:])
	}
}

// inputDigest hashes every input the named workload generates from seed at
// the given size.
func inputDigest(workload string, seed uint64, sz size) string {
	h := sha256.New()
	switch workload {
	case "small_calls":
		h.Write(genPayload(rngFor(seed, "small_calls/payload"), callPayload))
	case "serve_mix":
		h.Write(genPayload(rngFor(seed, "serve_mix/payload"), callPayload))
		for _, rate := range serveRates {
			hashSchedule(h, genSchedule(rngFor(seed, serveStream(rate)), rate, 50*time.Millisecond))
		}
	case "array_stream":
		n := streamShape(sz).n
		hashFloats(h, genReals(rngFor(seed, "array_stream/data"), n*n*n))
	case "owner_compute":
		n := ownerShape(sz).n
		hashFloats(h, genDyadics(rngFor(seed, "owner_compute/a"), n*n*n))
		hashFloats(h, genDyadics(rngFor(seed, "owner_compute/b"), n*n*n))
		j := ownerShape(sz).jn
		hashFloats(h, genReals(rngFor(seed, "owner_compute/jacobi"), j*j*j))
	case "pfft":
		n := pfftShape(sz).n
		hashComplex(h, genComplex(rngFor(seed, "pfft/input"), n*n*n))
	}
	return hex.EncodeToString(h.Sum(nil))
}
