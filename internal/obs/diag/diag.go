// Package diag is the detector's flight recorder: a fixed-size,
// lock-free ring buffer of structured pipeline events — stage spans
// (wall-clock duration plus a virtual-clock reading) and anomaly records
// (CRC failures, sequence gaps, marker resyncs, backlog
// high-watermarks, degrade transitions, collector sheds and
// disconnects). It exists so a production `literace watch` can explain
// *why* it stalled or degraded after the fact, not just that it did.
//
// Like the obs registry, the disabled path is free: every method on a
// nil *Recorder is a no-op that performs zero allocations (proven by
// BenchmarkDiagDisabledOverhead), so pipeline code records
// unconditionally through a possibly-nil pointer. The enabled path is
// also allocation-free per record: writers claim a slot with one atomic
// add and publish scalar fields through per-slot atomics, so collector
// sessions and their pipelines can record concurrently without locks.
// When the ring laps, the oldest records are overwritten — a flight
// recorder keeps the recent past, not the whole flight.
package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"literace/internal/obs"
)

// Stage identifies one pipeline stage a span was recorded for.
type Stage uint8

// The pipeline stages, in data-flow order. StageChunkDecode covers
// trace.Stream.Feed — note it *contains* the downstream stages, because
// decoding emits chunks which are merged and analyzed inline; the
// other spans let the contained time be attributed. StageRunLive is the
// interpreter's OnLive heartbeat during `literace run`.
const (
	StageChunkDecode   Stage = iota // trace.Stream.Feed: bytes in → chunks emitted (includes downstream)
	StageMergerDeliver              // hb.Merger Add+Pump for one chunk: events delivered
	StageClockEngine                // vector-clock updates for the sync events of one chunk
	StageRunLive                    // interpreter OnLive heartbeat (items = mem ops, vclock = instrs)
	numStages
)

var stageNames = [numStages]string{
	"chunk-decode",
	"merger-deliver",
	"clock-engine",
	"run-live",
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage-%d", uint8(s))
}

// MarshalText renders the stage name, so JSON dumps read as strings.
func (s Stage) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Anomaly identifies one kind of pipeline anomaly record.
type Anomaly uint8

const (
	// AnomCRCFailure: a chunk failed its CRC-32 check and was dropped.
	AnomCRCFailure Anomaly = iota
	// AnomSeqGap: a thread's chunk sequence skipped numbers (lost chunks).
	AnomSeqGap
	// AnomMarkerResync: the decoder discarded bytes scanning for the next
	// chunk marker (magnitude = bytes dropped).
	AnomMarkerResync
	// AnomBacklogHighWater: the merge backlog reached a new high
	// watermark (magnitude = the watermark, in events).
	AnomBacklogHighWater
	// AnomDegradeTransition: the merge entered degraded mode; races found
	// from here on are unconfirmed (magnitude = accesses analyzed before
	// the transition).
	AnomDegradeTransition
	// AnomShed: a collector session's bounded reorder buffer overflowed
	// and bytes were abandoned to keep ingesting (magnitude = bytes shed).
	// The byte gap degrades that producer's analysis; confirmed races
	// stay zero-false-positive.
	AnomShed
	// AnomDisconnect: a producer connection dropped without a clean EOF
	// (magnitude = bytes accepted so far). The session parks for the
	// resume grace window, then finalizes under salvage rules.
	AnomDisconnect
	// AnomUnknownFrame: a collector connection carried a frame kind this
	// build does not understand (magnitude = the flag byte). The frame is
	// answered with a structured reject and skipped; the session keeps
	// streaming, so mixed-version fleets degrade per-frame, not
	// per-producer.
	AnomUnknownFrame
	numAnomalies
)

var anomalyNames = [numAnomalies]string{
	"crc-failure",
	"seq-gap",
	"marker-resync",
	"backlog-high-water",
	"degrade-transition",
	"shed",
	"disconnect",
	"unknown-frame",
}

func (a Anomaly) String() string {
	if int(a) < len(anomalyNames) {
		return anomalyNames[a]
	}
	return fmt.Sprintf("anomaly-%d", uint8(a))
}

// MarshalText renders the anomaly name, so JSON dumps read as strings.
func (a Anomaly) MarshalText() ([]byte, error) { return []byte(a.String()), nil }

// Kind discriminates the two record shapes in the ring.
type Kind uint8

const (
	KindSpan Kind = iota + 1
	KindAnomaly
)

func (k Kind) String() string {
	switch k {
	case KindSpan:
		return "span"
	case KindAnomaly:
		return "anomaly"
	}
	return fmt.Sprintf("kind-%d", uint8(k))
}

// MarshalText renders the kind name, so JSON dumps read as strings.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// Event is one decoded flight-recorder record. Wall is nanoseconds since
// the recorder's epoch (span start time, or the anomaly's record time);
// WallDur is the span's wall-clock duration in nanoseconds (zero for
// anomalies and instant spans). VClock is a stage-specific virtual-clock
// reading — delivered-event count for decode/deliver spans, the dispatch
// ordinal for dispatch/detect spans, the instruction count for run-live
// heartbeats — giving every span both a wall and a virtual duration axis.
// Items is the work magnitude: bytes fed, events delivered, batch
// length, or the anomaly's magnitude.
type Event struct {
	Seq     uint64
	Kind    Kind
	Stage   Stage   // meaningful only when Kind == KindSpan
	Anomaly Anomaly // meaningful only when Kind == KindAnomaly
	TID     int32
	Wall    int64
	WallDur int64
	VClock  uint64
	Items   uint64
}

// MarshalJSON renders the record with only the fields its kind defines:
// spans carry a stage, anomalies an anomaly code.
func (e Event) MarshalJSON() ([]byte, error) {
	m := struct {
		Seq     uint64   `json:"seq"`
		Kind    Kind     `json:"kind"`
		Stage   *Stage   `json:"stage,omitempty"`
		Anomaly *Anomaly `json:"anomaly,omitempty"`
		TID     int32    `json:"tid"`
		Wall    int64    `json:"wall_ns"`
		WallDur int64    `json:"wall_dur_ns,omitempty"`
		VClock  uint64   `json:"vclock"`
		Items   uint64   `json:"items"`
	}{Seq: e.Seq, Kind: e.Kind, TID: e.TID, Wall: e.Wall, WallDur: e.WallDur, VClock: e.VClock, Items: e.Items}
	switch e.Kind {
	case KindSpan:
		m.Stage = &e.Stage
	case KindAnomaly:
		m.Anomaly = &e.Anomaly
	}
	return json.Marshal(m)
}

// slot holds one ring record entirely in atomics, so concurrent writers
// and snapshot readers stay race-free without a lock: a writer claims an
// index, stores claim, publishes the payload fields, then stores done.
// A reader accepts a slot only when done matches the expected claim
// before *and* claim still matches after copying the payload — any
// concurrent overwrite bumps claim first and the copy is discarded.
type slot struct {
	claim atomic.Uint64 // claim index + 1; first store of a write
	meta  atomic.Uint64 // kind<<56 | stage<<48 | anomaly<<40 | uint32(tid)
	wall  atomic.Int64
	dur   atomic.Int64
	vclk  atomic.Uint64
	items atomic.Uint64
	done  atomic.Uint64 // claim index + 1; last store of a write
}

func packMeta(k Kind, s Stage, a Anomaly, tid int32) uint64 {
	return uint64(k)<<56 | uint64(s)<<48 | uint64(a)<<40 | uint64(uint32(tid))
}

func unpackMeta(m uint64) (Kind, Stage, Anomaly, int32) {
	return Kind(m >> 56), Stage(m >> 48 & 0xff), Anomaly(m >> 40 & 0xff), int32(uint32(m))
}

// DefaultCapacity is the ring size when NewRecorder is given 0.
const DefaultCapacity = 4096

// Recorder is the flight recorder. The zero value is not usable; create
// one with NewRecorder. A nil *Recorder is the disabled recorder: every
// method is a free no-op.
type Recorder struct {
	epoch time.Time
	mask  uint64
	slots []slot
	head  atomic.Uint64

	// Aggregates survive ring overwrites: the SLO watchdog reads these,
	// not the ring, so an anomaly is never lost to a lap.
	anomCount [numAnomalies]atomic.Uint64
	spanCount [numStages]atomic.Uint64
	spanNs    [numStages]atomic.Uint64
	spanMaxNs [numStages]atomic.Int64

	// Optional obs mirrors (nil-safe): per-stage latency histograms and
	// per-anomaly counters, so /metrics exports the same aggregates.
	stageHist [numStages]*obs.Histogram
	anomCnt   [numAnomalies]*obs.Counter
}

// NewRecorder returns a recorder with the given ring capacity (rounded
// up to a power of two; 0 means DefaultCapacity).
func NewRecorder(capacity int) *Recorder { return NewRecorderObs(capacity, nil) }

// NewRecorderObs is NewRecorder plus an obs mirror: every span feeds a
// diag.stage_ns.<stage> histogram and every anomaly a
// diag.anomalies.<name> counter in reg, so the flight recorder's
// aggregates ride the existing /metrics surface. reg may be nil.
func NewRecorderObs(capacity int, reg *obs.Registry) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	r := &Recorder{
		epoch: time.Now(),
		mask:  uint64(n - 1),
		slots: make([]slot, n),
	}
	if reg != nil {
		for s := Stage(0); s < numStages; s++ {
			r.stageHist[s] = reg.Histogram("diag.stage_ns." + s.String())
		}
		for a := Anomaly(0); a < numAnomalies; a++ {
			r.anomCnt[a] = reg.Counter("diag.anomalies." + a.String())
		}
	}
	return r
}

// Epoch is the recorder's time origin; Event.Wall offsets are relative
// to it. The zero time on a nil recorder.
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Cap returns the ring capacity (0 on a nil recorder).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// record claims a slot and publishes one event. Safe for any number of
// concurrent writers.
func (r *Recorder) record(meta uint64, wall, dur int64, vclk, items uint64) {
	i := r.head.Add(1) - 1
	s := &r.slots[i&r.mask]
	s.claim.Store(i + 1)
	s.meta.Store(meta)
	s.wall.Store(wall)
	s.dur.Store(dur)
	s.vclk.Store(vclk)
	s.items.Store(items)
	s.done.Store(i + 1)
}

// Span records a completed stage span that started at start and took
// dur of wall time. vclock is the stage's virtual-clock reading at span
// end; items is the work magnitude (see Event). No-op on nil.
func (r *Recorder) Span(stage Stage, tid int32, start time.Time, dur time.Duration, vclock, items uint64) {
	if r == nil {
		return
	}
	ns := dur.Nanoseconds()
	r.spanCount[stage].Add(1)
	r.spanNs[stage].Add(uint64(ns))
	for {
		old := r.spanMaxNs[stage].Load()
		if ns <= old || r.spanMaxNs[stage].CompareAndSwap(old, ns) {
			break
		}
	}
	r.stageHist[stage].Observe(uint64(ns))
	r.record(packMeta(KindSpan, stage, 0, tid), start.Sub(r.epoch).Nanoseconds(), ns, vclock, items)
}

// Anomaly records one anomaly occurrence of the given magnitude. vclock
// is the pipeline's virtual-clock reading when it happened. No-op on nil.
func (r *Recorder) Anomaly(a Anomaly, tid int32, magnitude, vclock uint64) {
	if r == nil {
		return
	}
	r.anomCount[a].Add(1)
	r.anomCnt[a].Inc()
	r.record(packMeta(KindAnomaly, 0, a, tid), time.Since(r.epoch).Nanoseconds(), 0, vclock, magnitude)
}

// AnomalyCount returns how many anomalies of kind a were recorded over
// the recorder's lifetime (aggregate; unaffected by ring laps).
func (r *Recorder) AnomalyCount(a Anomaly) uint64 {
	if r == nil {
		return 0
	}
	return r.anomCount[a].Load()
}

// Anomalies returns the total anomaly count across all kinds.
func (r *Recorder) Anomalies() uint64 {
	if r == nil {
		return 0
	}
	var t uint64
	for i := range r.anomCount {
		t += r.anomCount[i].Load()
	}
	return t
}

// StageStats returns the lifetime span aggregates for one stage: how
// many spans were recorded, their total wall nanoseconds, and the
// largest single span.
func (r *Recorder) StageStats(s Stage) (count, totalNs uint64, maxNs int64) {
	if r == nil {
		return 0, 0, 0
	}
	return r.spanCount[s].Load(), r.spanNs[s].Load(), r.spanMaxNs[s].Load()
}

// Recorded returns the total number of records ever written (including
// ones since overwritten).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.head.Load()
}

// Dropped returns how many records have been overwritten by ring laps.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	if h, c := r.head.Load(), uint64(len(r.slots)); h > c {
		return h - c
	}
	return 0
}

// Snapshot copies the ring's current contents, oldest first. Records
// being overwritten mid-copy are skipped (a snapshot taken while the
// pipeline runs is a best-effort read; after Finish it is exact).
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	h := r.head.Load()
	lo := uint64(0)
	if c := uint64(len(r.slots)); h > c {
		lo = h - c
	}
	evs := make([]Event, 0, h-lo)
	for i := lo; i < h; i++ {
		s := &r.slots[i&r.mask]
		if s.done.Load() != i+1 {
			continue // still being written, or already overwritten
		}
		e := Event{
			Seq:     i,
			Wall:    s.wall.Load(),
			WallDur: s.dur.Load(),
			VClock:  s.vclk.Load(),
			Items:   s.items.Load(),
		}
		e.Kind, e.Stage, e.Anomaly, e.TID = unpackMeta(s.meta.Load())
		if s.claim.Load() != i+1 || s.done.Load() != i+1 {
			continue // overwritten while copying; discard the torn read
		}
		evs = append(evs, e)
	}
	return evs
}

// WriteJSONL dumps the ring as JSON Lines (one event per line, oldest
// first) — the flight-recorder member of a diag bundle.
func (r *Recorder) WriteJSONL(w io.Writer) error {
	for _, e := range r.Snapshot() {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if _, err := w.Write(append(b, '\n')); err != nil {
			return err
		}
	}
	return nil
}
