package main

import (
	"math"
	"sort"
	"strconv"
	"time"
)

// kind says where a metric is reported and whether a regression bound
// applies to it.
type kind int

const (
	// gated metrics are end-to-end metrics every workload reports; they
	// are the end_to_end list of BENCHMARK.json.
	gated kind = iota
	// endToEnd metrics are end-to-end metrics that only some workloads
	// can report (an overhead ratio needs an uninstrumented run).
	endToEnd
	// layer metrics come from a traced run and carry no bound.
	layer
)

// metricDef is the single source of truth for a metric's unit, direction
// and regression bound; BENCHMARK.json mirrors the gated and universal
// layer rows (TestBenchmarkJSONMatchesTable keeps them in step).
type metricDef struct {
	name   string
	unit   string
	higher bool    // higher is better
	bound  float64 // share of the base median a metric may worsen by
	kind   kind
	// universal marks the layer metrics every workload's traced run
	// reports: the per_layer list of BENCHMARK.json.
	universal bool
}

// Bounds come from measured spreads on a 2-vCPU x86-64 VM (README.md,
// "Bounds"): wall times there swing with the host by more than the 5-10%
// a quiet machine would allow, so every timing bound is the 25% cap and
// setup_s shares the largest. Ratios of two timings taken side by side
// cancel the swings and keep tight bounds.
var metricTable = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25, kind: gated},
	{name: "pass_ms_p50", unit: "ms", bound: 0.25, kind: gated},
	{name: "detect_ms_p50", unit: "ms", bound: 0.25, kind: gated},
	{name: "detect_ms_p90", unit: "ms", bound: 0.25, kind: gated},
	{name: "detect_mevents_per_s", unit: "Mevent/s", higher: true, bound: 0.25, kind: gated},
	{name: "heap_peak_mb", unit: "MB", bound: 0.2, kind: gated},

	{name: "run_overhead_x", unit: "x", bound: 0.1, kind: endToEnd},
	{name: "full_overhead_x", unit: "x", bound: 0.1, kind: endToEnd},
	{name: "run_minstr_per_s", unit: "Minstr/s", higher: true, bound: 0.25, kind: endToEnd},
	{name: "watch_mevents_per_s", unit: "Mevent/s", higher: true, bound: 0.25, kind: endToEnd},
	{name: "collector_mevents_per_s", unit: "Mevent/s", higher: true, bound: 0.25, kind: endToEnd},
	{name: "error_rate", unit: "frac", bound: 0, kind: endToEnd},

	{name: "trace.log_bytes_per_event", unit: "B/event", kind: layer, universal: true},
	{name: "trace.encode_ns_per_event", unit: "ns/event", kind: layer, universal: true},
	{name: "trace.decode_ns_per_event", unit: "ns/event", kind: layer, universal: true},
	{name: "trace.decode_bytes_per_event", unit: "B/event", kind: layer, universal: true},
	{name: "trace.decode_allocs_per_event", unit: "allocs/event", kind: layer, universal: true},
	{name: "trace.stream_decode_ns_per_event", unit: "ns/event", kind: layer, universal: true},
	{name: "hb.merge_ns_per_event", unit: "ns/event", kind: layer, universal: true},
	{name: "hb.merge_stalls_per_kevent", unit: "stalls/kevent", kind: layer, universal: true},
	{name: "hb.engine_ns_per_event", unit: "ns/event", kind: layer, universal: true},
	{name: "hb.engine_bytes_per_event", unit: "B/event", kind: layer, universal: true},
	{name: "hb.clock_ns_per_sync", unit: "ns/sync", kind: layer, universal: true},
	{name: "hb.access_ns_per_mem", unit: "ns/mem", kind: layer, universal: true},
	{name: "shadow.epoch_ns_per_event", unit: "ns/event", kind: layer, universal: true},
	{name: "shadow.fastpath_frac", unit: "frac", higher: true, kind: layer, universal: true},
	{name: "race.aggregate_ns_per_dynrace", unit: "ns/race", kind: layer, universal: true},
	{name: "race.dynamic_races", unit: "count", kind: layer, universal: true},
	{name: "detect.explained_frac", unit: "frac", kind: layer, universal: true},
	{name: "detect.page_faults_per_call", unit: "faults/call", kind: layer, universal: true},
	{name: "stream.one_shard_mevents_per_s", unit: "Mevent/s", higher: true, kind: layer, universal: true},
	{name: "bench.tracing_overhead_frac", unit: "frac", kind: layer, universal: true},

	{name: "asm.assemble_ms", unit: "ms", kind: layer},
	{name: "instrument.rewrite_ms", unit: "ms", kind: layer},
	{name: "instrument.code_growth_x", unit: "x", kind: layer},
	{name: "interp.base_ns_per_instr", unit: "ns/instr", kind: layer},
	{name: "interp.base_allocs_per_run", unit: "allocs/run", kind: layer},
	{name: "core.instr_ns_per_instr", unit: "ns/instr", kind: layer},
	{name: "core.full_ns_per_memop", unit: "ns/memop", kind: layer},
	{name: "core.esr", unit: "frac", kind: layer},
	{name: "core.embed_ns_per_access_tlad", unit: "ns/access", kind: layer},
	{name: "core.embed_ns_per_access_full", unit: "ns/access", kind: layer},
	{name: "core.embed_ns_per_sync", unit: "ns/sync", kind: layer},
	{name: "sampler.tlad_detect_rate", unit: "frac", higher: true, kind: layer},
	{name: "stream.numcpu_shard_mevents_per_s", unit: "Mevent/s", higher: true, kind: layer},
	{name: "stream.vs_batch_x", unit: "x", higher: true, kind: layer},
	{name: "stream.shard_skew", unit: "x", kind: layer},
	{name: "stream.backpressure_per_mevent", unit: "waits/Mevent", kind: layer},
	{name: "stream.stalls_per_kevent", unit: "stalls/kevent", kind: layer},
	{name: "stream.feed_ms_p90", unit: "ms", kind: layer},
	{name: "collector.ship_ms_p50", unit: "ms", kind: layer},
	{name: "collector.vs_stream_x", unit: "x", higher: true, kind: layer},
	{name: "collector.turbulence", unit: "count", kind: layer},
}

func lookupMetric(name string) (metricDef, bool) {
	for _, m := range metricTable {
		if m.name == name {
			return m, true
		}
	}
	return metricDef{}, false
}

// metric is one measured value as a run reports it.
type metric struct {
	Name   string  `json:"name"`
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Higher bool    `json:"higher_is_better"`
	Bound  float64 `json:"bound"`
	Layer  bool    `json:"layer"`
}

// metricSet accumulates a run's metrics in the order they are set.
type metricSet struct {
	list []metric
}

// set records a metric defined in metricTable; an unknown name is a bug.
func (s *metricSet) set(name string, v float64) {
	d, ok := lookupMetric(name)
	if !ok {
		panic("benchmark: metric not in metricTable: " + name)
	}
	for i := range s.list {
		if s.list[i].Name == name {
			s.list[i].Value = v
			return
		}
	}
	s.list = append(s.list, metric{Name: name, Value: v, Unit: d.unit, Higher: d.higher, Bound: d.bound, Layer: d.kind == layer})
}

func (s *metricSet) get(name string) (float64, bool) {
	for _, m := range s.list {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// series collects the wall times of one kind of timed call.
type series struct {
	ns     []float64
	items  float64 // events, instructions or bytes the calls processed
	faults float64 // page faults of the process during the calls
}

func (s *series) add(d time.Duration, items int64) {
	s.ns = append(s.ns, float64(d.Nanoseconds()))
	s.items += float64(items)
}

func (s *series) total() float64 {
	t := 0.0
	for _, v := range s.ns {
		t += v
	}
	return t
}

// quantile returns the q-quantile (0..1) of the samples by linear
// interpolation between closest ranks; 0 when there are none.
func (s *series) quantile(q float64) float64 { return quantile(s.ns, q) }

// megaPerSecond returns millions of items per second of summed call time.
func (s *series) megaPerSecond() float64 {
	t := s.total()
	if t == 0 {
		return 0
	}
	return s.items / t * 1e3
}

func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return c[lo] + (c[hi]-c[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	med := median(v)
	if med == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(med)
}

// formatValue prints every digit of a measurement.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
