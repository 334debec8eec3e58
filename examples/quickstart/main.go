// Quickstart: the paper's §2 worked examples, line for line, on the
// typed, context-aware RMI surface.
//
//	go run ./examples/quickstart
//
// It brings up a three-machine cluster in-process, creates a PageDevice
// process on machine 1, stores and fetches a page through its remote
// pointer, allocates remote plain memory on machine 2
// ("new(machine 2) double[1024]"), defines and uses a typed Counter class
// (methods declared with their codecs, calls with decoded results, a
// per-call deadline), and finally deletes the processes.
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"time"

	"oopp"
)

// counter is a user-defined remote class: the §2 "objects are processes"
// in its smallest form, declared with the typed registration surface: the
// class with its constructor's argument codec (its start value), each
// method once with the codecs of its argument and its result (DeclareOp),
// and callers construct through the class and call the Op handle that
// returns, so no string name appears at a call site and no byte is
// written by hand.
type counter struct{ n int }

var counterClass = oopp.RegisterClass("example.Counter", oopp.IntCodec,
	func(env *oopp.Env, start int) (*counter, error) { return &counter{n: start}, nil })

var (
	counterAdd = oopp.DeclareOp(counterClass, "add", oopp.IntCodec, oopp.IntCodec, func(c *counter, env *oopp.Env, d int) (int, error) {
		c.n += d
		return c.n, nil
	})
	counterGet = oopp.DeclareOp(counterClass, "get", oopp.VoidCodec, oopp.IntCodec, func(c *counter, env *oopp.Env, _ struct{}) (int, error) {
		return c.n, nil
	})
)

func main() {
	ctx := context.Background()

	// "Consider now the situation where multiple computers machine 0,
	// machine 1, machine 2, etc. are available..."
	cl, err := oopp.NewLocalCluster(3, 0)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Shutdown()
	client := cl.Client() // this program runs on machine 0

	// PageDevice * PageStore = new(machine 1)
	//     PageDevice("pagefile", NumberOfPages, PageSize);
	const (
		numberOfPages = 10
		pageSize      = 1024
	)
	pageStore, err := oopp.NewDevice(ctx, client, 1, "pagefile", numberOfPages, pageSize, oopp.DiskPrivate)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("created %v on machine 1\n", pageStore.Ref())

	// Page * page = GenerateDataPage();
	page := oopp.NewPage(pageSize)
	for i := range page.Data {
		page.Data[i] = byte(i % 251)
	}

	// PageStore->write(page, PageAddress);
	const pageAddress = 7
	if err := pageStore.Write(ctx, pageAddress, page.Data); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %d bytes to page %d of the remote device\n", len(page.Data), pageAddress)

	back, err := pageStore.Read(ctx, pageAddress)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("read it back: identical = %v\n", bytes.Equal(back, page.Data))

	// double * data = new(machine 2) double[1024];
	data, err := oopp.NewFloat64Array(ctx, client, 2, 1024)
	if err != nil {
		log.Fatal(err)
	}
	// data[7] = 3.1415;
	if err := data.Set(ctx, 7, 3.1415); err != nil {
		log.Fatal(err)
	}
	// double x = data[2];
	x, err := data.Get(ctx, 2)
	if err != nil {
		log.Fatal(err)
	}
	v7, err := data.Get(ctx, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("remote memory on machine 2: data[2] = %v, data[7] = %v\n", x, v7)

	// The typed surface: "new(machine 1) Counter(100)" is construction
	// through the class handle — no string class name — and calls go
	// through the methods' Ops, their results coming back decoded.
	ref, err := counterClass.New(ctx, client, 1, 100)
	if err != nil {
		log.Fatal(err)
	}
	n, err := counterAdd.Call(ctx, client, ref, 23)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("typed counter on machine 1: add(23) -> %d\n", n)

	// The §4 split form, typed: issue now, wait (with ctx) later. A
	// per-call deadline and trace label ride along as options.
	fut := counterGet.CallAsync(ctx, client, ref, struct{}{})
	got, err := fut.Wait(ctx)
	if err != nil {
		log.Fatal(err)
	}
	pinged := client.Ping(ctx, 1, oopp.WithTimeout(time.Second), oopp.WithLabel("quickstart")) == nil
	fmt.Printf("typed counter: get() -> %d (1s-deadline ping ok: %v)\n", got, pinged)

	// Destruction of a remote object terminates the remote process.
	if err := client.Delete(ctx, ref); err != nil {
		log.Fatal(err)
	}
	if err := data.Free(ctx); err != nil {
		log.Fatal(err)
	}
	if err := pageStore.Close(ctx); err != nil {
		log.Fatal(err)
	}
	if _, err := pageStore.Read(ctx, 0); err != nil {
		fmt.Printf("after delete, the process is gone: %v\n", err)
	}
}
