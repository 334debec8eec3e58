package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readRecords reads a -json file: one record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	return recs, sc.Err()
}

// side is one file's runs of one end-to-end metric on one workload.
type side struct {
	values []float64 // one per run
	within []float64 // each run's own segment IQR, for files of a single run
}

func (s side) median() float64 { return median(s.values) }

// spread is the distance between the quartiles of the runs as a share of
// their median; a single run has only its segments to go by.
func (s side) spread() float64 {
	if len(s.values) >= 2 {
		return iqr(s.values) / s.median()
	}
	return s.within[0] / s.median()
}

type metricKey struct{ workload, metric string }

func collect(recs []record) (map[metricKey]*side, float64) {
	sides := map[metricKey]*side{}
	var attempted, failed int64
	for _, rec := range recs {
		attempted += rec.Attempted
		failed += rec.Failed
		for _, r := range rec.Rows {
			if r.Kind != kindE2E {
				continue
			}
			k := metricKey{r.Workload, r.Metric}
			if sides[k] == nil {
				sides[k] = &side{}
			}
			sides[k].values = append(sides[k].values, r.Value)
			sides[k].within = append(sides[k].within, r.IQR)
		}
	}
	return sides, float64(failed) / float64(max(attempted, 1))
}

// Verdicts of a comparison.
const (
	vBetter     = "better"
	vWithin     = "within"
	vWorse      = "worse"
	vUnresolved = "unresolved" // the runs spread wider than the bound
)

// judge compares the change's runs of one metric with the parent's.
func judge(d *metricDecl, parent, change side) (worsening float64, verdict string) {
	p, c := parent.median(), change.median()
	worsening = c/p - 1
	if d.Better == higher {
		worsening = p/c - 1
	}
	spread := max(parent.spread(), change.spread())
	switch {
	case spread > d.Bound:
		return worsening, vUnresolved
	case worsening > d.Bound:
		return worsening, vWorse
	case -worsening > spread:
		return worsening, vBetter
	}
	return worsening, vWithin
}

// compareFiles prints, for every end-to-end metric on every workload both
// files hold, the parent's median, the change's, the bound and a verdict.
// It returns the process's exit code: non-zero on any worse metric or on a
// higher failed_frac.
func compareFiles(parentPath, changePath string, w io.Writer) int {
	parentRecs, err := readRecords(parentPath)
	if err == nil && len(parentRecs) == 0 {
		err = fmt.Errorf("%s holds no runs", parentPath)
	}
	changeRecs, err2 := readRecords(changePath)
	if err2 == nil && len(changeRecs) == 0 {
		err2 = fmt.Errorf("%s holds no runs", changePath)
	}
	for _, e := range []error{err, err2} {
		if e != nil {
			fmt.Fprintf(w, "bench -compare: %v\n", e)
			return 2
		}
	}
	parent, parentFailed := collect(parentRecs)
	change, changeFailed := collect(changeRecs)
	var keys []metricKey
	for k := range parent {
		if change[k] != nil && declOf(k.metric) != nil {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	code := 0
	fmt.Fprintf(w, "%-14s %-24s %-8s %14s %14s %8s %7s %6s  %s\n",
		"workload", "metric", "unit", "parent median", "change median", "worse by", "spread", "bound", "verdict")
	for _, k := range keys {
		d := declOf(k.metric)
		worsening, verdict := judge(d, *parent[k], *change[k])
		if verdict == vWorse {
			code = 1
		}
		fmt.Fprintf(w, "%-14s %-24s %-8s %14.4f %14.4f %+7.1f%% %6.1f%% %5.0f%%  %s\n",
			k.workload, k.metric, d.Unit, parent[k].median(), change[k].median(), 100*worsening,
			100*max(parent[k].spread(), change[k].spread()), 100*d.Bound, verdict)
	}
	fmt.Fprintf(w, "failed_frac: parent %.6f (%d runs), change %.6f (%d runs)\n", parentFailed, len(parentRecs), changeFailed, len(changeRecs))
	if changeFailed > parentFailed {
		fmt.Fprintln(w, "failed_frac rose: worse")
		code = 1
	}
	return code
}
