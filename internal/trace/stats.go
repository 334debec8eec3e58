package trace

import (
	"sort"
	"sync/atomic"

	"oopp/internal/metrics"
)

// MethodStats is the always-on telemetry of one remote method on one
// server: a latency histogram (admission to reply, so queueing counts)
// and outcome counters. Observation is allocation-free; the RMI server
// classifies outcomes because the typed errors live above this package.
type MethodStats struct {
	Name string // "class.method"
	Hist metrics.Hist
	// OK counts successful invocations; Errs every other failure not
	// counted below.
	OK   atomic.Int64
	Errs atomic.Int64
	// Expired counts requests shed in the mailbox because the client's
	// deadline passed before execution; Fenced counts the typed migration
	// fence refusals clients park on and replay.
	Expired atomic.Int64
	Fenced  atomic.Int64
}

// MethodSnapshot is the serialized telemetry of one method.
type MethodSnapshot struct {
	Name    string               `json:"name"`
	OK      int64                `json:"ok"`
	Errs    int64                `json:"errs,omitempty"`
	Expired int64                `json:"expired,omitempty"`
	Fenced  int64                `json:"fenced,omitempty"`
	Hist    metrics.HistSnapshot `json:"hist"`
}

// SnapshotMethods captures the telemetry of every method in table (a nil
// entry is a method not called yet), sorted by name.
func SnapshotMethods(table []*MethodStats) []MethodSnapshot {
	var out []MethodSnapshot
	for _, st := range table {
		if st == nil {
			continue
		}
		out = append(out, MethodSnapshot{
			Name:    st.Name,
			OK:      st.OK.Load(),
			Errs:    st.Errs.Load(),
			Expired: st.Expired.Load(),
			Fenced:  st.Fenced.Load(),
			Hist:    st.Hist.Snapshot(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot is one machine's full debug-plane answer: its identity, its
// counters (messages, bytes, disk operations, sheds, ...), its per-method
// telemetry, and the span ring. A machine's expired requests are its
// methods' Expired, summed. It is self-describing JSON — the opDebug op
// returns exactly this, and cmd/opptrace merges one per machine.
type Snapshot struct {
	Machine  int              `json:"machine"`
	Counters metrics.Snapshot `json:"counters"`
	Methods  []MethodSnapshot `json:"methods,omitempty"`
	Spans    []SpanRecord     `json:"spans,omitempty"`
}
