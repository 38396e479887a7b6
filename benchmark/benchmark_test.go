package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"literace/internal/trace"
)

// tinySizes keep every workload to a fraction of a second.
var tinySizes = sizes{
	sampled: []string{"concrt-sched", "firefox-start"},
	full:    []string{"concrt-sched"},
	embed:   embedSize{ops: 500, work: 16, keys: 64, stripes: 8, bucket: 2, scan: 2},
	many:    manySize{threads: 16, events: 4000, syncPct: 10, groups: 4, races: 2},
}

// benchmarkJSON is the part of BENCHMARK.json the tests check.
type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func direction(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONMatchesTable keeps BENCHMARK.json in step with the
// workloads and the metric table the program reports from.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloadList) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bj.Workloads), len(workloadList))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadList[i].name || w.Why != workloadList[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q (%q), program %q (%q)", i, w.Name, w.Why, workloadList[i].name, workloadList[i].why)
		}
	}
	var gatedDefs, layerDefs []metricDef
	for _, d := range metricTable {
		switch {
		case d.kind == gated:
			gatedDefs = append(gatedDefs, d)
		case d.universal:
			layerDefs = append(layerDefs, d)
		}
	}
	if len(bj.EndToEnd) != len(gatedDefs) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the table %d", len(bj.EndToEnd), len(gatedDefs))
	}
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		d := gatedDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != direction(d.higher) || m.Bound != d.bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
		maxBound = math.Max(maxBound, m.Bound)
	}
	if d, _ := lookupMetric("setup_s"); d.bound != maxBound {
		t.Errorf("setup_s bound %g is not the largest (%g)", d.bound, maxBound)
	}
	if len(bj.PerLayer) != len(layerDefs) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the table %d universal ones", len(bj.PerLayer), len(layerDefs))
	}
	for i, m := range bj.PerLayer {
		d := layerDefs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != direction(d.higher) {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, table %+v", i, m, d)
		}
	}
}

// printed parses the "<workload> <metric> <value> <unit>" lines of a
// run's output and its final JSON line.
func printed(t *testing.T, out string) (map[string]string, map[string]any) {
	t.Helper()
	units := map[string]string{}
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		last = line
		f := strings.Fields(line)
		if len(f) == 4 && !strings.HasPrefix(line, "#") {
			units[f[1]] = f[3]
		}
	}
	var result map[string]any
	if err := json.Unmarshal([]byte(last), &result); err != nil {
		t.Fatalf("last line is not the JSON result: %q: %v", last, err)
	}
	return units, result
}

// TestWorkloadsPrintEveryMetric runs each workload at tiny size, plain
// and traced, and checks that every metric BENCHMARK.json names is
// printed with its unit and lands in the final JSON line, with no
// failed call.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	for _, w := range workloadList {
		for _, traced := range []bool{false, true} {
			b := newBench(w.name, 1, 50*time.Millisecond, traced, tinySizes, &bytes.Buffer{})
			if err := w.run(b); err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			rec := b.record(0.05)
			if err := rec.write(&out); err != nil {
				t.Fatal(err)
			}
			units, result := printed(t, out.String())
			if rec.Failed != 0 || result["correct"] != true {
				t.Errorf("%s traced=%v: %d of %d calls failed", w.name, traced, rec.Failed, rec.Attempted)
			}
			metrics := result["metrics"].(map[string]any)
			want := map[string]string{}
			if traced {
				for _, m := range bj.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bj.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for name, unit := range want {
				if units[name] != unit {
					t.Errorf("%s traced=%v: %s printed with unit %q, want %q", w.name, traced, name, units[name], unit)
				}
				if _, ok := metrics[name]; !ok {
					t.Errorf("%s traced=%v: %s missing from the JSON result", w.name, traced, name)
				}
			}
			if len(metrics) != len(want) {
				t.Errorf("%s traced=%v: JSON result has %d metrics, want %d", w.name, traced, len(metrics), len(want))
			}
		}
	}
}

func decode(t *testing.T, data []byte) *trace.Log {
	t.Helper()
	log, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return log
}

// TestManyThreadsLogDeterministic: one goroutine generates the log, so
// a seed fixes every event, timestamps included.
func TestManyThreadsLogDeterministic(t *testing.T) {
	gen := func(seed int64) *trace.Log {
		data, err := manyThreadsLog(tinySizes.many, seed)
		if err != nil {
			t.Fatal(err)
		}
		return decode(t, data)
	}
	a, b, c := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a.Threads, b.Threads) || !reflect.DeepEqual(a.ChunkOrder, b.ChunkOrder) {
		t.Error("seed 1 generated two different logs")
	}
	if reflect.DeepEqual(a.Threads, c.Threads) {
		t.Error("seeds 1 and 2 generated the same log")
	}
	if len(a.Threads) != tinySizes.many.threads {
		t.Errorf("log has %d threads, want %d", len(a.Threads), tinySizes.many.threads)
	}
}

// TestEmbedLogDeterministic: the embedded workload runs on two real
// goroutines, so timestamps follow the interleaving, but each thread's
// own event sequence is fixed by the seed.
func TestEmbedLogDeterministic(t *testing.T) {
	gen := func(seed int64) map[int32][]trace.Event {
		var buf bytes.Buffer
		if err := newEmbedState(tinySizes.embed, seed).run("Full", &buf); err != nil {
			t.Fatal(err)
		}
		threads := decode(t, buf.Bytes()).Threads
		for _, evs := range threads {
			for i := range evs {
				evs[i].TS = 0
			}
		}
		return threads
	}
	a, b, c := gen(1), gen(1), gen(2)
	if !reflect.DeepEqual(a, b) {
		t.Error("seed 1 generated two different per-thread event sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("seeds 1 and 2 generated the same per-thread event sequences")
	}
}

func TestJudge(t *testing.T) {
	lower := metric{Name: "detect_ms_p50", Bound: 0.05}
	higher := metric{Name: "detect_mevents_per_s", Bound: 0.05, Higher: true}
	exact := metric{Name: "error_rate", Bound: 0}
	steady := []float64{100, 101, 99, 100, 100, 100.5}
	for _, c := range []struct {
		name         string
		def          metric
		base, change []float64
		want         string
	}{
		{"within bound", lower, steady, []float64{102, 103, 101, 102, 102}, unchanged},
		{"slower past bound", lower, steady, []float64{110, 111, 109, 110, 110}, worse},
		{"faster past bound", lower, steady, []float64{90, 91, 89, 90, 90}, better},
		{"throughput down", higher, steady, []float64{90, 91, 89, 90, 90}, worse},
		{"throughput up", higher, steady, []float64{110, 111, 109, 110, 110}, better},
		{"noisy base", lower, []float64{80, 120, 100, 90, 110}, []float64{100, 101, 99, 100, 100}, unresolved},
		{"noisy change", lower, steady, []float64{80, 120, 100, 90, 110}, unresolved},
		{"noisy but every run better", lower, []float64{90, 130, 110, 100, 120}, []float64{50, 70, 60, 55, 65}, better},
		{"exact bound holds", exact, []float64{0, 0, 0}, []float64{0, 0, 0}, unchanged},
		{"exact bound breaks", exact, []float64{0, 0, 0}, []float64{0, 0.01, 0}, worse},
	} {
		if got := judge(c.def, c.base, c.change); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, seconds float64, vals ...float64) string {
		path := filepath.Join(dir, name)
		for _, v := range vals {
			var m metricSet
			m.set("detect_ms_p50", v)
			m.set("detect.explained_frac", v) // per-layer: never judged
			if err := appendJSONLine(path, &record{Workload: "full-detect", Seconds: seconds, Metrics: m.list}); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write("base.jsonl", 15, 100, 101, 99, 100, 100)
	if _, err := compareFiles(&bytes.Buffer{}, base, write("short.jsonl", 5, 100, 100, 100)); err == nil {
		t.Error("runs with different windows were compared")
	}
	for _, c := range []struct {
		vals      []float64
		wantWorse bool
		row       string
	}{
		{[]float64{100, 100, 101, 99, 100}, false, "full-detect      unchanged"},
		{[]float64{130, 131, 129, 130, 130}, true, "full-detect      worse"},
	} {
		change := write("change"+formatValue(c.vals[0])+".jsonl", 15, c.vals...)
		var out bytes.Buffer
		worseRow, err := compareFiles(&out, base, change)
		if err != nil {
			t.Fatal(err)
		}
		if worseRow != c.wantWorse || !strings.HasPrefix(out.String(), c.row) {
			t.Errorf("compare %v: worse=%v, output:\n%s", c.vals, worseRow, out.String())
		}
		if strings.Contains(out.String(), "explained") {
			t.Errorf("per-layer metric judged:\n%s", out.String())
		}
	}
}
