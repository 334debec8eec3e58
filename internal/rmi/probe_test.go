package rmi_test

import (
	"context"
	"testing"

	"oopp/internal/cluster"
	"oopp/internal/core"
	"oopp/internal/pagedev"
	"oopp/internal/pfft"
	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/transport"
)

// TestArraysAndTheExchangeRunNoMemberInline: the array, kernel and FFT
// paths send no reply group of several to one machine, so none of their
// requests runs on a reader as a collective's member — an array's Write
// and Read, plain and mirrored, are requests by themselves; a kernel
// collective over one device per machine, the owner-computes Jacobi
// solver over two, and the transform over one worker per machine, send
// one request to each. Each path runs twice, so
// its methods have been seen. A barrier over objects that share a machine
// shows what the count is for.
func TestArraysAndTheExchangeRunNoMemberInline(t *testing.T) {
	bg := context.Background()
	cl, err := cluster.New(cluster.Config{Machines: 2, Transport: transport.TCP{}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Shutdown()
	runs := rmi.CountMemberRuns(t)
	const n, page = 32, 8
	arrays := make([]*core.Array, 3)
	for k := range arrays {
		pm, err := core.NewRoundRobinMap(n/page, n/page, n/page, 2)
		banks := 1
		switch {
		case err != nil:
		case k == 1:
			pm, err = core.NewReplicatedMap(pm, 2)
		case k == 2: // a Jacobi grid: striped, with its scratch bank
			pm, err = core.NewStripedMap(n/page, n/page, n/page, 2)
			banks = 2
		}
		if err != nil {
			t.Fatal(err)
		}
		storage, err := core.CreateBlockStorage(bg, cl.Client(), []int{0, 1}, "probe", banks*pm.PagesPerDevice(), page, page, page, pagedev.DiskPrivate)
		if err != nil {
			t.Fatal(err)
		}
		if arrays[k], err = core.NewArray(bg, storage, pm, n, n, n, page, page, page); err != nil {
			t.Fatal(err)
		}
	}
	fft, err := pfft.New(bg, cl.Client(), []int{0, 1}, 16, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer fft.Close(bg)
	vals, spectrum := make([]float64, n*n*n), make([]complex128, 16*16*16)
	for i := range vals {
		vals[i] = float64(i % 7)
	}
	for i := range spectrum {
		spectrum[i] = complex(float64(i%5), 1)
	}
	x, y, grid := arrays[0], arrays[1], arrays[2]
	for _, path := range []struct {
		name string
		run  func() error
	}{
		{"Array.Write", func() error { return x.Write(bg, vals, x.Bounds()) }},
		{"Array.Read", func() error { return x.Read(bg, vals, x.Bounds()) }},
		{"Array.Write k=2", func() error { return y.Write(bg, vals, y.Bounds()) }},
		{"Array.Read k=2", func() error { return y.Read(bg, vals, y.Bounds()) }},
		{"Array.Scale", func() error { return x.Scale(bg, x.Bounds(), 2) }},
		{"Array.Sum", func() error { _, err := x.Sum(bg, x.Bounds()); return err }},
		{"Array.Axpy", func() error { return x.Axpy(bg, 0.5, y, x.Bounds()) }},
		{"JacobiOwner", func() error {
			if err := grid.Write(bg, vals, grid.Bounds()); err != nil {
				return err
			}
			_, err := core.JacobiOwner(bg, grid, 2)
			return err
		}},
		{"pfft Load", func() error { return fft.Load(bg, spectrum) }},
		{"pfft Transform", func() error {
			if err := fft.Transform(bg, -1); err != nil {
				return err
			}
			return fft.Transform(bg, +1)
		}},
		{"pfft Gather", func() error { return fft.Gather(bg, spectrum) }},
	} {
		for range 2 {
			if err := path.run(); err != nil {
				t.Fatalf("%s: %v", path.name, err)
			}
		}
		if n := runs.Load(); n != 0 {
			t.Fatalf("%s: %d requests ran on a reader as a collective's members", path.name, n)
		}
	}

	refs := make([]rmi.Ref, 8)
	for i := range refs {
		if refs[i], err = cl.Client().New(bg, 1, serve.ClassWork, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; runs.Load() == 0; i++ {
		if i == 100 {
			t.Fatal("no member of 100 barriers over objects of one machine ran on the reader")
		}
		if err := rmi.BarrierRefs(bg, cl.Client(), refs, rmi.DefaultWindow); err != nil {
			t.Fatal(err)
		}
	}
}
