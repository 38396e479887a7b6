// Command benchmark measures the LiteRace pipeline end to end and layer
// by layer on five workloads generated from a seed: sampled runs of the
// evaluated programs, an embedded Go workload timed in wall-clock time,
// offline detection of full logs, streaming and collector ingestion, and
// detection at 256 threads. See README.md for the workloads, metrics and
// how to run and compare.
//
//	go run . -workload full-detect -seed 1            # end-to-end metrics
//	go run . -workload full-detect -seed 1 -trace 1   # per-layer metrics
//	go run . -compare base.jsonl change.jsonl         # judge two run sets
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	why  string
	run  func(*bench) error
}

var workloadList = []workload{
	{"sampled-run", "what every LiteRace user pays: the evaluated LIR programs run uninstrumented, under TL-Ad and fully logged, then TL-Ad logs are detected", runSampled},
	{"embed-wallclock", "the paper's Table 5 in wall-clock time: two goroutines annotate shared-heap accesses through literace.Detector with no interpreter in front", runEmbed},
	{"full-detect", "offline detection of ~1M-event full logs: decoding, merging and access analysis do the work; the clock engine and interpreter idle", runFullDetect},
	{"watch-ingest", "the detection core used incrementally: the full logs fed in 64 KiB pieces to streaming sessions and shipped by two producers to a collector", runWatchIngest},
	{"many-threads", "256 threads with sparse lock communication: vector-clock joins and the 256-way merge dominate while access analysis does little", runManyThreads},
}

// sizes are the input sizes of a run; tests use tiny ones.
type sizes struct {
	sampled []string // evaluated programs sampled-run uses; nil = all nine
	full    []string // programs whose full logs full-detect and watch-ingest use
	embed   embedSize
	many    manySize
}

var defaultSizes = sizes{
	full:  []string{"dryad", "concrt-msg", "apache-1", "firefox-render"},
	embed: embedSize{ops: 20000, work: 256, keys: 4096, stripes: 64, bucket: 4, scan: 8},
	many:  manySize{threads: 256, events: 300000, syncPct: 10, groups: 64, races: 4},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 15, "length of the timed window in seconds")
	traceMode := fs.Int("trace", 0, "1 runs traced passes and reports per-layer metrics instead of end-to-end ones")
	spansOut := fs.String("spans", "", "with -trace 1, write the spans as Chrome trace-event JSON to this file")
	jsonOut := fs.String("json", "", "append this run's record as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two run sets: -compare BASE.jsonl CHANGE.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare needs two files of -json records")
			return 2
		}
		worse, err := compareFiles(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
		if worse {
			return 3
		}
		return 0
	}
	w, ok := findWorkload(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	case *traceMode != 0 && *traceMode != 1:
		fmt.Fprintln(stderr, "benchmark: -trace takes 0 or 1")
		return 2
	case *spansOut != "" && *traceMode != 1:
		fmt.Fprintln(stderr, "benchmark: -spans needs -trace 1")
		return 2
	case *seconds <= 0:
		fmt.Fprintln(stderr, "benchmark: -seconds must be positive")
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	b := newBench(w.name, *seed, window, *traceMode == 1, defaultSizes, stderr)
	if err := w.run(b); err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	rec := b.record(*seconds)
	if err := rec.write(stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if *jsonOut != "" {
		if err := appendJSONLine(*jsonOut, rec); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *spansOut != "" {
		if err := writeFile(*spansOut, b.tr.writeChrome); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if rec.Failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var out []string
	for _, w := range workloadList {
		out = append(out, w.name)
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloadList {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// record is everything one run reports: its context, how much it ran,
// and its metrics. -json appends it as one line; -compare reads them.
type record struct {
	Workload   string         `json:"workload"`
	Traced     bool           `json:"traced"`
	Seed       int64          `json:"seed"`
	Seconds    float64        `json:"seconds"`
	GoVersion  string         `json:"go_version"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Commit     string         `json:"git_commit"`
	GODEBUG    string         `json:"godebug"`
	Passes     int            `json:"passes"`
	SetupReps  int            `json:"setup_reps"`
	Calls      map[string]int `json:"calls"`
	Attempted  int            `json:"attempted"`
	Failed     int            `json:"failed"`
	Metrics    []metric       `json:"metrics"`
}

func (b *bench) record(seconds float64) *record {
	b.m.set("error_rate", ratio(float64(b.failed), float64(b.attempted)))
	calls := make(map[string]int)
	passes := len(b.passes.ns)
	if b.tr != nil {
		passes = b.rounds
		for name, st := range b.tr.stats(nil) {
			calls[name] = st.count
		}
	} else {
		for name, s := range b.calls {
			calls[name] = len(s.ns)
		}
	}
	return &record{
		Workload: b.workload, Traced: b.tr != nil, Seed: b.seed, Seconds: seconds,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: gitCommit(), GODEBUG: os.Getenv("GODEBUG"), Passes: passes, SetupReps: setupReps, Calls: calls,
		Attempted: b.attempted, Failed: b.failed, Metrics: b.m.list,
	}
}

// gitCommit returns the checkout's commit, or "" outside a git work
// tree. The search stops at the working directory, so it never reads a
// repository that merely encloses it.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return ""
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}

// write prints the header, one "<workload> <metric> <value> <unit>"
// line per metric, and last the one-line JSON result: the end-to-end
// metrics of BENCHMARK.json in a plain run, its per-layer metrics in a
// traced one.
func (r *record) write(w io.Writer) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "# workload %s\n# traced %v\n# seed %d\n# seconds %g\n", r.Workload, r.Traced, r.Seed, r.Seconds)
	fmt.Fprintf(&sb, "# go_version %s\n# gomaxprocs %d\n# num_cpu %d\n# git_commit %s\n# godebug %s\n", r.GoVersion, r.GOMAXPROCS, r.NumCPU, r.Commit, r.GODEBUG)
	fmt.Fprintf(&sb, "# passes %d\n# setup_reps %d\n", r.Passes, r.SetupReps)
	names := make([]string, 0, len(r.Calls))
	for n := range r.Calls {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "# calls %s %d\n", n, r.Calls[n])
	}
	fmt.Fprintf(&sb, "# attempted %d\n# failed %d\n", r.Attempted, r.Failed)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := map[string]value{}
	for _, m := range r.Metrics {
		fmt.Fprintf(&sb, "%s %s %s %s\n", r.Workload, m.Name, formatValue(m.Value), m.Unit)
		d, _ := lookupMetric(m.Name)
		if (!r.Traced && d.kind == gated) || (r.Traced && d.universal) {
			result[m.Name] = value{m.Value, m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0 && r.Attempted > 0, r.Attempted, r.Failed, result})
	if err != nil {
		return err
	}
	sb.Write(line)
	sb.WriteByte('\n')
	_, err = io.WriteString(w, sb.String())
	return err
}

func appendJSONLine(path string, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
