package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// stageOf names the flight-recorder stage (internal/obs/diag) a span
// covers, so a timeline of benchmark spans reads like one of `literace
// watch`. Calls that match no single stage carry none.
var stageOf = map[string]string{
	spanReadAll:   "chunk-decode",
	spanStream:    "chunk-decode",
	spanReplay:    "merger-deliver",
	spanClockOnly: "clock-engine",
}

// Span names: one per timed call into a layer.
const (
	spanPass       = "pass"
	spanProbe      = "probe"
	spanDetect     = "literace.Detect"
	spanRun        = "literace.Program.Run"
	spanInterp     = "interp.Run"
	spanAssemble   = "asm.Assemble"
	spanRewrite    = "instrument.Rewrite"
	spanEmbed      = "literace.Detector"
	spanEmbedTLAd  = "literace.Thread.Read/TL-Ad"
	spanEmbedFull  = "literace.Thread.Read/Full"
	spanEmbedSync  = "literace.Thread.Lock/Full"
	spanSession    = "literace.StreamSession"
	spanOneShard   = "literace.StreamSession/1-shard"
	spanNumCPU     = "literace.StreamSession/numcpu-shards"
	spanShip       = "collector.ShipBytes"
	spanFleet      = "collector.fleet"
	spanReadAll    = "trace.ReadAll"
	spanStream     = "trace.Stream"
	spanEncode     = "trace.Writer"
	spanReplay     = "hb.Replay"
	spanEngine     = "hb.ProcessBatch"
	spanClockOnly  = "hb.ProcessBatch/sync-only"
	spanEpoch      = "hb.ProcessBatch/epoch"
	spanAggregate  = "race.Set.AddResult"
	spanComparison = "harness.RunComparisonWith"
)

// span is one timed call. Parent indexes the enclosing span (-1 at the
// root); lane separates concurrent callers (0 is the driving goroutine,
// producer i is lane i+1).
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int
	iter       int
	lane       int
	items      int64
}

// tracer keeps spans in memory and writes them out when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, iter, lane int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, iter: iter, lane: lane})
	return len(t.spans) - 1
}

func (t *tracer) end(id int, items int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end = time.Since(t.epoch)
	t.spans[id].items = items
}

// spanStats aggregates the spans of one name.
type spanStats struct {
	count   int
	totalNs float64
	selfNs  float64 // duration minus the time child spans cover
	items   float64
}

// stats aggregates self time per span name over the spans keep accepts
// (nil keeps all). Self time subtracts the union of the children's
// intervals, so concurrent children are not counted twice.
func (t *tracer) stats(keep func(s, parent *span) bool) map[string]*spanStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]*spanStats)
	for i := range t.spans {
		s := &t.spans[i]
		var parent *span
		if s.parent >= 0 {
			parent = &t.spans[s.parent]
		}
		if keep != nil && !keep(s, parent) {
			continue
		}
		st := out[s.name]
		if st == nil {
			st = &spanStats{}
			out[s.name] = st
		}
		st.count++
		st.items += float64(s.items)
		st.totalNs += float64(s.end - s.start)
		st.selfNs += float64(s.end-s.start) - covered(t.spans, children[i])
	}
	return out
}

// durations returns the wall time of every span of the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// covered returns the nanoseconds the union of the given spans covers.
func covered(spans []span, ids []int) float64 {
	iv := make([][2]time.Duration, 0, len(ids))
	for _, id := range ids {
		iv = append(iv, [2]time.Duration{spans[id].start, spans[id].end})
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE time.Duration
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			if x[1] > curE {
				curE = x[1]
			}
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return float64(total)
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), which Perfetto and chrome://tracing
// open directly.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for i, s := range t.spans {
		args := map[string]any{"id": i, "parent": s.parent, "iter": s.iter, "items": s.items}
		cat := "layer"
		if st, ok := stageOf[s.name]; ok {
			args["stage"] = st
			cat = st
		}
		evs = append(evs, event{
			Name: s.name, Cat: cat, Ph: "X",
			Ts:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64((s.end - s.start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.lane, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ns"})
}
