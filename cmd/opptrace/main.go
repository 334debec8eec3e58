// opptrace is the cluster introspection client: it pulls every
// machine's debug snapshot (per-method latency histograms, outcome
// counters, and the sampled-span flight recorder) over the RMI debug
// plane, merges them, and prints
//
//   - a per-method table: calls, outcome split, p50/p99 — the
//     histograms are merged across machines, so the quantiles describe
//     the cluster, not one server;
//   - a per-machine counter table: one row per counter of the machines'
//     registries (messages and bytes sent, disk operations, sheds, ...)
//     and a last row of live objects, one column per machine;
//   - a tree view of one trace: spans from every machine stitched by
//     parent links, indented by causality — a cross-machine method
//     chain reads top to bottom like a call stack.
//
// Point it at a running cluster the same way opploadgen is pointed:
//
//	opptrace -peers 127.0.0.1:9100,127.0.0.1:9101
//	opptrace -registry /tmp/reg -machines 2 -trace 0x1a2b
//
// With no -trace it prints the table plus a summary line per captured
// trace (id, span count, machines touched) — pick an id from there.
// -assert-cross-machine exits nonzero unless at least one captured
// trace has a child span whose parent ran on a different machine; the
// CI trace-smoke job uses it to prove wire propagation end to end.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"reflect"
	"sort"
	"strconv"
	"time"

	"oopp/internal/cluster"
	"oopp/internal/metrics"
	"oopp/internal/rmi"
	"oopp/internal/trace"
	"oopp/internal/transport"
)

func main() {
	peers := flag.String("peers", "", "comma-separated machine addresses, index order")
	registry := flag.String("registry", "", "shared registry directory (alternative to -peers)")
	machines := flag.Int("machines", 0, "cluster size (defaults to the number of -peers)")
	traceID := flag.String("trace", "", "trace id to print as a tree (hex with 0x prefix, or decimal)")
	assertCross := flag.Bool("assert-cross-machine", false, "exit nonzero unless a trace spans two machines with a parent link")
	timeout := flag.Duration("timeout", 15*time.Second, "per-machine pull timeout")
	flag.Parse()

	if err := run(*peers, *registry, *machines, *traceID, *assertCross, *timeout); err != nil {
		log.Print(err)
		os.Exit(1)
	}
}

func run(peers, registry string, machines int, traceIDStr string, assertCross bool, timeout time.Duration) error {
	dir, err := cluster.PeerDirectory(machines, peers, registry)
	if err != nil {
		return err
	}
	if dir == nil {
		return fmt.Errorf("need -peers or -registry")
	}
	client := rmi.NewClient(transport.TCP{}, dir)
	defer client.Close()

	// Pull every machine's snapshot. A machine that cannot be reached
	// fails the run: a debug plane that silently drops machines would
	// report misleading cluster-wide quantiles.
	snaps := make([]trace.Snapshot, dir.Size())
	live := make([]uint64, dir.Size())
	for m := 0; m < dir.Size(); m++ {
		ctx, cancel := context.WithTimeout(context.Background(), timeout)
		buf, err := client.Debug(ctx, m)
		if err == nil {
			live[m], _, err = client.Stat(ctx, m)
		}
		cancel()
		if err != nil {
			return fmt.Errorf("machine %d: debug pull: %w", m, err)
		}
		if err := json.Unmarshal(buf, &snaps[m]); err != nil {
			return fmt.Errorf("machine %d: decoding snapshot: %w", m, err)
		}
	}

	printMethodTable(snaps)
	printCounterTable(snaps, live)

	spans := make([]trace.SpanRecord, 0, 256)
	for _, s := range snaps {
		spans = append(spans, s.Spans...)
	}
	byTrace := make(map[uint64][]trace.SpanRecord)
	for _, sp := range spans {
		byTrace[sp.TraceID] = append(byTrace[sp.TraceID], sp)
	}

	if traceIDStr != "" {
		tid, err := strconv.ParseUint(traceIDStr, 0, 64)
		if err != nil {
			return fmt.Errorf("bad -trace %q: %w", traceIDStr, err)
		}
		tspans, ok := byTrace[tid]
		if !ok {
			return fmt.Errorf("trace %#x not found in any machine's span ring", tid)
		}
		printTree(tid, tspans)
	} else {
		printTraceSummary(byTrace)
	}

	if assertCross {
		tid, ok := crossMachineTrace(byTrace)
		if !ok {
			return fmt.Errorf("assert-cross-machine: no captured trace has a parent link crossing machines (%d traces, %d spans)", len(byTrace), len(spans))
		}
		fmt.Printf("CROSS-MACHINE OK trace=%#x\n", tid)
		if traceIDStr == "" {
			printTree(tid, byTrace[tid])
		}
	}
	return nil
}

func printMethodTable(snaps []trace.Snapshot) {
	// Each class.method aggregated across machines.
	merged := make(map[string]*trace.MethodStats)
	var table []*trace.MethodStats
	for _, s := range snaps {
		for _, ms := range s.Methods {
			st := merged[ms.Name]
			if st == nil {
				st = &trace.MethodStats{Name: ms.Name}
				merged[ms.Name] = st
				table = append(table, st)
			}
			st.OK.Add(ms.OK)
			st.Errs.Add(ms.Errs)
			st.Expired.Add(ms.Expired)
			st.Fenced.Add(ms.Fenced)
			st.Hist.Merge(ms.Hist)
		}
	}
	fmt.Printf("%-40s %10s %8s %8s %8s %10s %10s\n",
		"METHOD", "OK", "ERRS", "EXPIRED", "FENCED", "P50(µs)", "P99(µs)")
	for _, ms := range trace.SnapshotMethods(table) {
		hist := &merged[ms.Name].Hist
		fmt.Printf("%-40s %10d %8d %8d %8d %10d %10d\n",
			ms.Name, ms.OK, ms.Errs, ms.Expired, ms.Fenced,
			hist.QuantileUs(0.50), hist.QuantileUs(0.99))
	}
}

// printCounterTable prints every machine's registry, one row per counter
// and one column per machine, then each machine's live objects. A
// machine's expired requests are not a counter of their own: the method
// table's EXPIRED column has them.
func printCounterTable(snaps []trace.Snapshot, live []uint64) {
	fmt.Printf("\n%-16s", "COUNTER")
	for _, s := range snaps {
		fmt.Printf(" %14s", fmt.Sprintf("m%d", s.Machine))
	}
	typ := reflect.TypeOf(metrics.Snapshot{})
	for i := range typ.NumField() {
		fmt.Printf("\n%-16s", typ.Field(i).Name)
		for _, s := range snaps {
			fmt.Printf(" %14d", reflect.ValueOf(s.Counters).Field(i).Int())
		}
	}
	fmt.Printf("\n%-16s", "Objects")
	for _, n := range live {
		fmt.Printf(" %14d", n)
	}
	fmt.Println()
}

func printTraceSummary(byTrace map[uint64][]trace.SpanRecord) {
	type row struct {
		tid      uint64
		start    int64
		spans    int
		machines int
	}
	rows := make([]row, 0, len(byTrace))
	for tid, tspans := range byTrace {
		ms := make(map[int]bool)
		var start int64
		for _, sp := range tspans {
			ms[sp.Machine] = true
			if start == 0 || sp.StartUnixNs < start {
				start = sp.StartUnixNs
			}
		}
		rows = append(rows, row{tid, start, len(tspans), len(ms)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].start > rows[j].start })
	fmt.Printf("\n%d traces captured (most recent first, -trace <id> for a tree):\n", len(rows))
	for i, r := range rows {
		if i >= 20 {
			fmt.Printf("  ... and %d more\n", len(rows)-i)
			break
		}
		fmt.Printf("  trace %#018x  spans=%-4d machines=%d\n", r.tid, r.spans, r.machines)
	}
}

// printTree renders one trace's spans as an indented causality tree.
// Spans whose parent is not in the captured set (the ring may have
// evicted it) print as roots, so a partially-evicted trace still
// renders instead of vanishing.
func printTree(tid uint64, tspans []trace.SpanRecord) {
	byID := make(map[uint64]trace.SpanRecord, len(tspans))
	children := make(map[uint64][]trace.SpanRecord)
	for _, sp := range tspans {
		byID[sp.SpanID] = sp
	}
	var roots []trace.SpanRecord
	for _, sp := range tspans {
		if _, ok := byID[sp.ParentID]; ok && sp.ParentID != sp.SpanID {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	order := func(s []trace.SpanRecord) {
		sort.Slice(s, func(i, j int) bool { return s[i].StartUnixNs < s[j].StartUnixNs })
	}
	order(roots)
	fmt.Printf("\ntrace %#x:\n", tid)
	var walk func(sp trace.SpanRecord, depth int)
	walk = func(sp trace.SpanRecord, depth int) {
		status := ""
		if sp.Err {
			status = "  ERR"
		}
		fmt.Printf("  %*s[m%d] %-32s %8.1fµs%s\n",
			2*depth, "", sp.Machine, sp.Name, float64(sp.DurationNs)/1e3, status)
		kids := children[sp.SpanID]
		order(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
}

// crossMachineTrace finds a trace with a child span whose resolved
// parent ran on a different machine — the wire-propagation proof.
func crossMachineTrace(byTrace map[uint64][]trace.SpanRecord) (uint64, bool) {
	for tid, tspans := range byTrace {
		byID := make(map[uint64]trace.SpanRecord, len(tspans))
		for _, sp := range tspans {
			byID[sp.SpanID] = sp
		}
		for _, sp := range tspans {
			if parent, ok := byID[sp.ParentID]; ok && parent.Machine != sp.Machine && sp.Machine >= 0 && parent.Machine >= 0 {
				return tid, true
			}
		}
	}
	return 0, false
}
