package e2e

import (
	"encoding/json"
	"fmt"
	"testing"

	"oopp/internal/rmi"
	"oopp/internal/serve"
	"oopp/internal/trace"
)

// pullSpans drains machine m's debug snapshot over the wire — the same
// path cmd/opptrace uses — and returns its captured span records.
func pullSpans(t *testing.T, cl *Cluster, m int) []trace.SpanRecord {
	t.Helper()
	ctx := testCtx(t)
	buf, err := cl.Client.Debug(ctx, m)
	if err != nil {
		t.Fatalf("debug pull from machine %d: %v", m, err)
	}
	var snap trace.Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("machine %d snapshot: %v", m, err)
	}
	if snap.Machine != m {
		t.Fatalf("machine %d snapshot says machine %d", m, snap.Machine)
	}
	return snap.Spans
}

// TestCrossMachineTraceOverTCP proves wire propagation of trace context
// end to end, across real OS processes: one sampled relay call fans
// machine 0 -> machine 1, and the span rings of BOTH processes must
// stitch into ONE trace whose machine-1 server span is parented (via
// machine 0's client span) to machine 0's relay handler span.
func TestCrossMachineTraceOverTCP(t *testing.T) {
	cl := StartCluster(t, 2)
	ctx := testCtx(t)
	c := cl.Client

	// A Work object per machine; m0's relays to m1's.
	w0, err := c.New(ctx, 0, serve.ClassWork, nil)
	if err != nil {
		t.Fatalf("new work on 0: %v", err)
	}
	w1, err := c.New(ctx, 1, serve.ClassWork, nil)
	if err != nil {
		t.Fatalf("new work on 1: %v", err)
	}
	if _, err := serve.WorkBind.Call(ctx, c, w0, w1); err != nil {
		t.Fatalf("bind: %v", err)
	}

	payload := []byte("causality")
	d, err := c.Call(ctx, w0, "relay", serve.EchoArgs(payload), rmi.WithSampled())
	if err != nil {
		t.Fatalf("relay: %v", err)
	}
	if got := string(d.BytesView()); got != string(payload) {
		t.Fatalf("relay echoed %q, want %q", got, payload)
	}
	d.Release()

	// Pull both rings over the debug plane and stitch.
	spans := append(pullSpans(t, cl, 0), pullSpans(t, cl, 1)...)
	byID := make(map[uint64]trace.SpanRecord, len(spans))
	for _, sp := range spans {
		byID[sp.SpanID] = sp
	}
	find := func(machine int, name string) trace.SpanRecord {
		t.Helper()
		for _, sp := range spans {
			if sp.Machine == machine && sp.Name == name {
				return sp
			}
		}
		t.Fatalf("no span %q on machine %d; captured: %v", name, machine, spanNames(spans))
		return trace.SpanRecord{}
	}

	relaySrv := find(0, "serve serve.Work.relay")
	echoCli := find(0, "call serve.Work.echo")
	echoSrv := find(1, "serve serve.Work.echo")

	// One trace end to end.
	if relaySrv.TraceID == 0 || echoCli.TraceID != relaySrv.TraceID || echoSrv.TraceID != relaySrv.TraceID {
		t.Fatalf("trace ids differ: relay=%#x cli=%#x echo=%#x",
			relaySrv.TraceID, echoCli.TraceID, echoSrv.TraceID)
	}
	// Machine 1's server span hangs off machine 0's client span, which
	// hangs off machine 0's relay handler span — the peer-hop chain.
	if echoSrv.ParentID != echoCli.SpanID {
		t.Fatalf("echo server span parent = %#x, want client span %#x", echoSrv.ParentID, echoCli.SpanID)
	}
	if echoCli.ParentID != relaySrv.SpanID {
		t.Fatalf("echo client span parent = %#x, want relay server span %#x", echoCli.ParentID, relaySrv.SpanID)
	}
	if parent, ok := byID[echoSrv.ParentID]; !ok || parent.Machine == echoSrv.Machine {
		t.Fatalf("echo server span's parent should resolve to another machine (ok=%v machine=%d)",
			ok, parent.Machine)
	}

	// The unsampled control: the same call without WithSampled must not
	// add spans to either ring.
	before := len(spans)
	if d, err := c.Call(ctx, w0, "relay", serve.EchoArgs(payload)); err != nil {
		t.Fatalf("unsampled relay: %v", err)
	} else {
		d.Release()
	}
	after := len(pullSpans(t, cl, 0)) + len(pullSpans(t, cl, 1))
	if after != before {
		t.Fatalf("unsampled relay grew the rings: %d -> %d spans", before, after)
	}

	// The debug plane also carries the always-on method stats.
	var found bool
	buf, err := c.Debug(ctx, 0)
	if err != nil {
		t.Fatalf("debug: %v", err)
	}
	var snap trace.Snapshot
	if err := json.Unmarshal(buf, &snap); err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	for _, ms := range snap.Methods {
		if ms.Name == "serve.Work.relay" {
			found = true
			if ms.OK < 2 {
				t.Fatalf("relay stats OK=%d, want >=2", ms.OK)
			}
		}
	}
	if !found {
		t.Fatal("machine 0 debug snapshot has no serve.Work.relay method stats")
	}
}

func spanNames(spans []trace.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = fmt.Sprintf("m%d:%s", sp.Machine, sp.Name)
	}
	return out
}
