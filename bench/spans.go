package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"oopp/internal/trace"
)

// span is one recorded interval: the benchmark's own, around a call into
// a layer's public function, or one the program captured for a sampled
// operation. Spans of one operation share Op.
type span struct {
	Name    string `json:"name"`
	Op      uint64 `json:"op"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Machine int    `json:"machine"` // -1: the benchmark itself
	selfNs  int64
}

// spanLog keeps a traced pass's spans in memory until the benchmark ends.
// A nil log (an untraced pass) records nothing.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	program int // how many of them the program captured
}

// timer times one call into a layer and, in a traced pass, records it.
type timer struct {
	log        *spanLog
	name       string
	op, id, up uint64
	t0         time.Time
}

// begin starts timing a call made on behalf of operation op under the
// span parent (0 for the operation's root).
func (l *spanLog) begin(name string, op, parent uint64) timer {
	t := timer{log: l, name: name, op: op, up: parent}
	if l != nil {
		t.id = trace.NewID()
	}
	t.t0 = time.Now()
	return t
}

// beginSampled starts an operation's root span and returns a context that
// makes the program capture its own spans beneath it.
func (l *spanLog) beginSampled(ctx context.Context, name string) (context.Context, timer) {
	sc := trace.NewRoot(true)
	t := timer{log: l, name: name, op: sc.TraceID, id: sc.SpanID}
	t.t0 = time.Now()
	return trace.ContextWith(ctx, sc), t
}

func (t timer) end() time.Duration {
	t1 := time.Now()
	if t.log != nil {
		t.log.mu.Lock()
		t.log.spans = append(t.log.spans, span{Name: t.name, Op: t.op, ID: t.id, Parent: t.up,
			StartNs: t.t0.UnixNano(), EndNs: t.t0.UnixNano() + int64(t1.Sub(t.t0)), Machine: -1})
		t.log.mu.Unlock()
	}
	return t1.Sub(t.t0)
}

// drain moves the program's captured spans out of its 4096-slot ring into
// the log; traced passes call it often enough that the ring never wraps.
func (l *spanLog) drain() {
	if l == nil {
		return
	}
	recs := trace.Spans()
	trace.ResetSpans()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, r := range recs {
		l.spans = append(l.spans, span{Name: r.Name, Op: r.TraceID, ID: r.SpanID, Parent: r.ParentID,
			StartNs: r.StartUnixNs, EndNs: r.StartUnixNs + r.DurationNs, Machine: r.Machine})
	}
	l.program += len(recs)
}

// ladderRow is one span name's share of the traced pass.
type ladderRow struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	MeanUs float64 `json:"mean_us"`
	SelfUs float64 `json:"self_us"` // mean duration minus the part child spans cover
}

// ladder computes every span's self time and groups the spans by name.
func (l *spanLog) ladder() []ladderRow {
	l.mu.Lock()
	defer l.mu.Unlock()
	kids := map[uint64][]int{}
	for i, s := range l.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	type agg struct{ n, dur, self int64 }
	byName := map[string]*agg{}
	for i := range l.spans {
		s := &l.spans[i]
		s.selfNs = (s.EndNs - s.StartNs) - l.cover(s, kids[s.ID])
		a := byName[s.Name]
		if a == nil {
			a = &agg{}
			byName[s.Name] = a
		}
		a.n++
		a.dur += s.EndNs - s.StartNs
		a.self += s.selfNs
	}
	rows := make([]ladderRow, 0, len(byName))
	for name, a := range byName {
		rows = append(rows, ladderRow{Name: name, Count: int(a.n),
			MeanUs: float64(a.dur) / float64(a.n) / 1e3, SelfUs: float64(a.self) / float64(a.n) / 1e3})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows
}

// cover is the length of the union of the child intervals, clipped to s.
func (l *spanLog) cover(s *span, kids []int) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(l.spans[k].StartNs, s.StartNs), min(l.spans[k].EndNs, s.EndNs)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, v := range iv {
		if v[0] > end {
			total += v[1] - v[0]
			end = v[1]
		} else if v[1] > end {
			total += v[1] - end
			end = v[1]
		}
	}
	return total
}

// selfOf returns the mean self and mean total time, in µs, of the spans
// whose name has the given prefix, and how many there were.
func selfOf(rows []ladderRow, prefix string) (selfUs, meanUs float64, n int) {
	for _, r := range rows {
		if len(r.Name) >= len(prefix) && r.Name[:len(prefix)] == prefix {
			selfUs += r.SelfUs * float64(r.Count)
			meanUs += r.MeanUs * float64(r.Count)
			n += r.Count
		}
	}
	if n > 0 {
		selfUs /= float64(n)
		meanUs /= float64(n)
	}
	return selfUs, meanUs, n
}

// maxSpansWritten bounds a span file; the ladder is computed from all of
// them and the file says how many there were.
const maxSpansWritten = 5000

// write stores the spans and the per-layer table at dir/trace-<workload>.json.
func (l *spanLog) write(dir, workload string, layer map[string]Stat) error {
	rows := l.ladder()
	l.mu.Lock()
	kept := l.spans
	if len(kept) > maxSpansWritten {
		kept = kept[:maxSpansWritten]
	}
	doc := struct {
		Workload string          `json:"workload"`
		Spans    int             `json:"spans_recorded"`
		Program  int             `json:"spans_from_program"`
		Ladder   []ladderRow     `json:"ladder"`
		Layer    map[string]Stat `json:"per_layer"`
		Kept     []span          `json:"spans"`
	}{workload, len(l.spans), l.program, rows, layer, kept}
	buf, err := json.MarshalIndent(doc, "", " ")
	l.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), buf, 0o644)
}
