// oppbench runs the experiment suite (internal/exp) and prints one
// table per experiment. Each experiment reproduces one claim of the
// paper; -list prints the index. There is one size: the one
// `go test ./internal/exp` runs and pins.
//
//	go run ./cmd/oppbench                       # the whole suite
//	go run ./cmd/oppbench -experiment E4        # one experiment
//	go run ./cmd/oppbench -list                 # list experiments
//
// The tables are for reading: nothing records or gates their times. The
// columns the code determines (messages, KB moved, allocs/op, ...) are
// held by `go test ./internal/exp` against internal/exp/testdata/pin.txt;
// wall-clock claims are bench/'s.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"oopp/internal/exp"
)

func main() {
	which := flag.String("experiment", "all", "an id from -list, or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range exp.Experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	fmt.Printf("oopp experiment suite — GOMAXPROCS=%d\n\n", runtime.GOMAXPROCS(0))

	run := func(e exp.Experiment) {
		start := time.Now()
		table, err := e.Run()
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		table.Render(os.Stdout)
		fmt.Printf("  (%s took %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	}

	if *which == "all" {
		for _, e := range exp.Experiments {
			run(e)
		}
	} else {
		e, ok := exp.Find(*which)
		if !ok {
			log.Fatalf("unknown experiment %q (use -list)", *which)
		}
		run(e)
	}
}
