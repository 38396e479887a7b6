package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Verdicts of the comparator, per metric and per workload.
const (
	better     = "better"
	worse      = "worse"
	unchanged  = "unchanged"
	unresolved = "unresolved"
)

// readRecords loads a file of -json records, one per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return out, nil
}

// runSet holds, per workload and metric, the values of a set of runs.
type runSet map[string]map[string][]float64

// bounded indexes the metrics of the records that carry a regression
// bound: the end-to-end ones. It also returns each metric's definition
// as the records state it.
func bounded(recs []record) (runSet, map[string]metric) {
	set := runSet{}
	defs := map[string]metric{}
	for _, r := range recs {
		for _, m := range r.Metrics {
			if m.Layer {
				continue
			}
			if set[r.Workload] == nil {
				set[r.Workload] = map[string][]float64{}
			}
			set[r.Workload][m.Name] = append(set[r.Workload][m.Name], m.Value)
			defs[m.Name] = m
		}
	}
	return set, defs
}

// judge compares one metric's runs. A change is worse or better when
// its median moves past the bound; when either side's run-to-run spread
// (interquartile distance over median) exceeds the bound the metric is
// unresolved, unless every changed run beats every base run. A bound of
// 0 (error_rate) admits no change at all, so it compares the worst runs.
func judge(def metric, base, change []float64) string {
	if def.Bound == 0 {
		return judgeExact(def.Higher, base, change)
	}
	mb, mc := median(base), median(change)
	// rel > 0 means the change is worse by that share of the base median.
	var rel float64
	switch {
	case mb != 0:
		rel = (mc - mb) / math.Abs(mb)
	case mc != mb:
		rel = math.Copysign(math.Inf(1), mc-mb)
	}
	if def.Higher {
		rel = -rel
	}
	allBetter := true
	for _, c := range change {
		for _, b := range base {
			if (def.Higher && c <= b) || (!def.Higher && c >= b) {
				allBetter = false
			}
		}
	}
	switch {
	case spread(base) > def.Bound || spread(change) > def.Bound:
		if allBetter {
			return better
		}
		return unresolved
	case rel > def.Bound:
		return worse
	case rel < -def.Bound:
		return better
	}
	return unchanged
}

// judgeExact compares the worst run of each side.
func judgeExact(higher bool, base, change []float64) string {
	worstRun := func(v []float64) float64 {
		if higher {
			return quantile(v, 0)
		}
		return quantile(v, 1)
	}
	wb, wc := worstRun(base), worstRun(change)
	switch {
	case wc == wb:
		return unchanged
	case (wc > wb) == higher:
		return better
	}
	return worse
}

// compareFiles prints one row per workload judging the change's runs
// against the base's, metric by metric, and reports whether any
// workload got worse.
func compareFiles(w io.Writer, basePath, changePath string) (bool, error) {
	baseRecs, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	changeRecs, err := readRecords(changePath)
	if err != nil {
		return false, err
	}
	// Run length changes what a run measures (samples per percentile,
	// share of warm-up), so only runs of one length compare.
	for _, r := range append(changeRecs, baseRecs...) {
		if r.Seconds != baseRecs[0].Seconds {
			return false, fmt.Errorf("runs of %gs and %gs windows cannot be compared", baseRecs[0].Seconds, r.Seconds)
		}
	}
	base, defs := bounded(baseRecs)
	change, _ := bounded(changeRecs)
	var names []string
	for name := range base {
		if change[name] != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	anyWorse := false
	for _, wl := range names {
		var metricNames []string
		for m := range base[wl] {
			if change[wl][m] != nil {
				metricNames = append(metricNames, m)
			}
		}
		sort.Strings(metricNames)
		row := unchanged
		var details []string
		for _, m := range metricNames {
			def := defs[m]
			b, c := base[wl][m], change[wl][m]
			v := judge(def, b, c)
			row = worst(row, v)
			details = append(details, fmt.Sprintf("  %-24s %-10s median %s -> %s %s (bound %g%%; spread %.1f%% -> %.1f%%; runs %d -> %d)",
				m, v, formatValue(median(b)), formatValue(median(c)), def.Unit, 100*def.Bound,
				100*spread(b), 100*spread(c), len(b), len(c)))
		}
		if row == worse {
			anyWorse = true
		}
		fmt.Fprintf(w, "%-16s %s\n", wl, row)
		for _, d := range details {
			fmt.Fprintln(w, d)
		}
	}
	if len(names) == 0 {
		return false, fmt.Errorf("the two files share no workload")
	}
	return anyWorse, nil
}

// worst orders verdicts for a workload row: any worse metric makes the
// row worse, then any unresolved one, then any better one.
func worst(a, b string) string {
	rank := map[string]int{unchanged: 0, better: 1, unresolved: 2, worse: 3}
	if rank[b] > rank[a] {
		return b
	}
	return a
}
