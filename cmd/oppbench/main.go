// oppbench runs the experiment suite (internal/exp) and prints one
// table per experiment. Each experiment reproduces one claim of the
// paper; -list prints the index.
//
//	go run ./cmd/oppbench                       # full suite
//	go run ./cmd/oppbench -quick                # smaller sweeps
//	go run ./cmd/oppbench -experiment E4        # one experiment
//	go run ./cmd/oppbench -list                 # list experiments
//	go run ./cmd/oppbench -json BENCH_all.json  # machine-readable results
//
// With -json the tables are also written as a JSON array, so BENCH_*.json
// snapshots track every reported metric over time — including the
// allocs/op columns of the latency/bulk experiments, which is how the
// allocation trajectory of the RMI hot path is monitored, not just its
// latency.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"oopp/internal/exp"
)

// jsonTable is the serialized form of one experiment table.
type jsonTable struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Claim     string     `json:"claim"`
	Columns   []string   `json:"columns"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS int64      `json:"elapsed_ms"`
}

func main() {
	quick := flag.Bool("quick", false, "smaller sweeps and iteration counts")
	which := flag.String("experiment", "all", "experiment id (E1..E11) or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "also write results to this JSON file (e.g. BENCH_all.json)")
	flag.Parse()

	if *list {
		for _, e := range exp.Experiments {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	cfg := exp.Config{Quick: *quick}
	mode := "full"
	if *quick {
		mode = "quick"
	}
	fmt.Printf("oopp experiment suite — mode=%s GOMAXPROCS=%d\n\n", mode, runtime.GOMAXPROCS(0))

	var results []jsonTable
	run := func(e exp.Experiment) {
		start := time.Now()
		table, err := e.Run(cfg)
		if err != nil {
			log.Fatalf("%s: %v", e.ID, err)
		}
		elapsed := time.Since(start)
		table.Render(os.Stdout)
		fmt.Printf("  (%s took %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
		results = append(results, jsonTable{
			ID:        table.ID,
			Title:     table.Title,
			Claim:     table.Claim,
			Columns:   table.Columns,
			Rows:      table.Rows,
			Notes:     table.Notes,
			ElapsedMS: elapsed.Milliseconds(),
		})
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

	if *jsonPath != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			log.Fatalf("marshal results: %v", err)
		}
		blob = append(blob, '\n')
		if err := os.WriteFile(*jsonPath, blob, 0o644); err != nil {
			log.Fatalf("write %s: %v", *jsonPath, err)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *jsonPath, len(results))
	}
}
