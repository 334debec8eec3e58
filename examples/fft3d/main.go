// fft3d: the paper's §4 joint Fourier transform. A master creates a
// group of FFT worker processes (one per machine), wires the group with
// the deep-copy SetGroup, scatters a 3D array, triggers the joint
// transform (workers exchange transpose blocks by calling methods on
// each other), gathers the result, and checks it against the local FFT.
// The workers talk over the in-process transport or real TCP sockets.
//
//	go run ./examples/fft3d [-n 32] [-workers 4] [-transport inproc|tcp]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/cmplx"
	"time"

	"oopp"
)

func main() {
	ctx := context.Background()
	nFlag := flag.Int("n", 32, "array extent per axis (power of two)")
	workers := flag.Int("workers", 4, "number of FFT worker processes")
	transportName := flag.String("transport", "inproc", "inproc or tcp")
	flag.Parse()
	n := *nFlag
	p := *workers
	if n%p != 0 {
		log.Fatalf("n=%d must be divisible by workers=%d", n, p)
	}

	cfg := oopp.ClusterConfig{Machines: p}
	switch *transportName {
	case "inproc":
	case "tcp":
		cfg.Transport = oopp.TCPTransport()
	default:
		log.Fatalf("unknown transport %q", *transportName)
	}
	cl, err := oopp.NewCluster(cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Shutdown()
	client := cl.Client()
	machines := make([]int, p)
	for i := range machines {
		machines[i] = i
	}

	// Deterministic test signal.
	x := make([]complex128, n*n*n)
	s := uint64(1)
	for i := range x {
		s = s*6364136223846793005 + 1442695040888963407
		x[i] = complex(float64(int64(s>>11))/float64(1<<52), 0)
	}

	// Local reference.
	want := append([]complex128(nil), x...)
	start := time.Now()
	if err := oopp.FFT3DLocal(want, n, n, n, -1); err != nil {
		log.Fatal(err)
	}
	localTime := time.Since(start)

	// fft[id] = new(machine id) FFT(id);  fft[id]->SetGroup(N, fft);
	f, err := oopp.NewPFFT(ctx, client, machines, n, n, n)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close(ctx)

	if err := f.Load(ctx, x); err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	// for id: fft[id]->transform(sign, a);
	if err := f.Transform(ctx, -1); err != nil {
		log.Fatal(err)
	}
	if err := f.Barrier(ctx); err != nil { // fft->barrier();
		log.Fatal(err)
	}
	distTime := time.Since(start)

	got := make([]complex128, len(x))
	if err := f.Gather(ctx, got); err != nil {
		log.Fatal(err)
	}

	var maxErr, ref float64
	for i := range got {
		maxErr = math.Max(maxErr, cmplx.Abs(got[i]-want[i]))
		ref = math.Max(ref, cmplx.Abs(want[i]))
	}
	fmt.Printf("3D FFT %d^3 with %d worker processes, %s transport\n", n, p, *transportName)
	fmt.Printf("local (1 core)      : %v\n", localTime)
	fmt.Printf("distributed (%d proc): %v\n", p, distTime)
	fmt.Printf("max relative error  : %.2e\n", maxErr/ref)

	// Inverse round trip through the same worker group.
	if err := f.Transform(ctx, +1); err != nil {
		log.Fatal(err)
	}
	if err := f.Gather(ctx, got); err != nil {
		log.Fatal(err)
	}
	maxErr = 0
	for i := range got {
		maxErr = math.Max(maxErr, cmplx.Abs(got[i]-x[i]))
	}
	fmt.Printf("inverse round trip  : max abs error %.2e\n", maxErr)
}
