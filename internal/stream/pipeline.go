// Package stream is the online detection pipeline: it analyzes an LTRC2
// event log while the log is still being written. Three layers compose,
// all on the goroutine that calls Feed: the log's one chunk decoder
// (trace.Stream, which trace.ReadAll and trace.Salvage also run) tails
// the growing byte stream; the shared ready-queue merge engine
// (hb.Merger) reconstructs a legal global order from the chunks as they
// arrive; and one hb.Detector consumes the events in that order.
//
// The pipeline's result is identical, race for race and in the same
// order, to a batch trace.ReadAll/Salvage + hb.Detect/DetectDegraded
// pass over the same bytes. That holds by construction: batch decoding
// and this pipeline accept chunks with the same trace.Stream, batch
// replay and this pipeline feed the same chunk sequence (the log's byte
// order) through the same hb.Merger, and both hand the merged events to
// the same hb.Detector type. literace.Detect and DetectSalvaged are this
// pipeline fed a whole input (Options.Strict for Detect).
package stream

import (
	"errors"
	"log/slog"
	"time"

	"literace/internal/hb"
	"literace/internal/obs"
	"literace/internal/obs/diag"
	"literace/internal/trace"
)

// Options configures a Pipeline.
//
// The pipeline analyzes every logged access (hb.AllEvents) and keeps
// every race.
type Options struct {
	// Obs, when non-nil, receives live pipeline telemetry (the
	// literace_stream_* families; see docs/OBSERVABILITY.md) alongside
	// the usual replay and detection counters.
	Obs *obs.Registry
	// Diag, when non-nil, is the flight recorder: every stage records
	// spans (decode, deliver, clock) and every anomaly (CRC failure, seq
	// gap, resync, backlog high-watermark, degrade transition) leaves a
	// structured record. Nil disables recording at zero cost.
	Diag *diag.Recorder
	// Log, when non-nil, receives structured warnings for pipeline
	// anomalies (slog; the stream subsystem logger). Nil disables.
	Log *slog.Logger
	// OnRace, when non-nil, is invoked for each dynamic race as it is
	// found, on the goroutine that calls Feed or Finish, in replay order:
	// the calls match Result.Races one for one.
	OnRace func(hb.DynamicRace)
	// Evidence enables forensic evidence capture, exactly as
	// hb.Options.Evidence does: every reported race carries immutable
	// AccessEvidence snapshots byte-identical to a batch pass.
	Evidence bool
	// NearMissMargin enables near-miss analytics as
	// hb.Options.NearMissMargin does.
	NearMissMargin int
	// Strict gives the pipeline trace.ReadAll + hb.Detect's contract
	// instead of salvage's: the merge runs in strict mode, its first
	// error is sticky, and Finish fails on any lost byte (the
	// decoder's SalvageReport.Err) before reporting that error. Only
	// whole-input callers set it; a live session wants salvage.
	Strict bool
}

// Result is the outcome of a streaming detection pass.
type Result struct {
	hb.Result

	// Degradation accounts the orderings the merge weakened on a damaged
	// or torn input (zero on a pristine complete log).
	Degradation hb.Degradation
	// Salvage is the decoder's accounting of the bytes consumed.
	Salvage *trace.SalvageReport
	// Meta is the best run metadata available (trailer, else checkpoint).
	Meta trace.Meta
	// Complete reports whether the metadata trailer was seen — the
	// writer's Close ran, so the input was a finished log.
	Complete bool

	// ShardEvents holds one element, Result.MemOps.
	//
	// Deprecated: the pipeline runs one detector; read Result.MemOps.
	ShardEvents []uint64
	// Stalls counts the merge's reorder stalls.
	Stalls uint64
	// Backpressure is always 0.
	//
	// Deprecated: the pipeline runs one detector and never blocks on it.
	Backpressure uint64
	// Elapsed and EventsPerSec describe throughput from pipeline creation
	// to Finish (all delivered events, sync included).
	Elapsed      time.Duration
	EventsPerSec float64
}

// Pipeline is an online detection session. Feed it encoded log bytes in
// any pieces (tailing a file, draining a socket); call Finish once the
// input is over to collect the result. Not safe for concurrent use: the
// pipeline starts no goroutines and does all its work in the caller's.
type Pipeline struct {
	opts Options

	dec *trace.Stream
	m   *hb.Merger
	deg hb.Degradation

	det   *hb.Detector
	start time.Time

	finished bool
	finRes   *Result
	finErr   error
	mergeErr error // first strict-mode merge error; sticky

	// Flight recorder + structured log (both may be nil).
	rec *diag.Recorder
	log *slog.Logger

	// Anomaly delta tracking: the decoder's SalvageReport counters are
	// cumulative, so each Feed diffs them to turn increases into
	// flight-recorder anomaly records.
	prevCRC     int
	prevGaps    uint64
	prevDropped int64 // bytes
	prevChunks  int   // chunks dropped
	hwmRecorded int   // last backlog HWM recorded as an anomaly

	// Clock-engine accumulators for the current chunk (valid only while
	// rec != nil): wall nanoseconds and ops spent in sync-event clock
	// updates, flushed as one StageClockEngine span per chunk.
	clkNs  int64
	clkOps uint64

	// Live events_per_sec window (fixes the gauge staleness: the rate is
	// refreshed during Feed and decays to zero when Idle is called).
	rateAt        time.Time
	rateDelivered uint64

	// Telemetry; nil-safe when opts.Obs is nil.
	obsBytes   *obs.Counter // stream.bytes
	obsEvents  *obs.Counter // stream.events
	obsBacklog *obs.Gauge   // stream.backlog_depth
	obsHWM     *obs.Gauge   // stream.backlog_hwm
	obsStalls  *obs.Gauge   // stream.reorder_stalls
	obsEPS     *obs.Gauge   // stream.events_per_sec
}

// New returns a pipeline ready to Feed.
func New(opts Options) *Pipeline {
	p := &Pipeline{
		opts: opts,
		det: hb.NewDetector(hb.Options{
			SamplerBit:     hb.AllEvents,
			OnRace:         opts.OnRace,
			Obs:            opts.Obs,
			Evidence:       opts.Evidence,
			NearMissMargin: opts.NearMissMargin,
		}),
		start: time.Now(),
		rec:   opts.Diag,
		log:   opts.Log,
	}
	p.rateAt = p.start
	if reg := opts.Obs; reg != nil {
		p.obsBytes = reg.Counter("stream.bytes")
		p.obsEvents = reg.Counter("stream.events")
		p.obsBacklog = reg.Gauge("stream.backlog_depth")
		p.obsHWM = reg.Gauge("stream.backlog_hwm")
		p.obsStalls = reg.Gauge("stream.reorder_stalls")
		p.obsEPS = reg.Gauge("stream.events_per_sec")
	}
	mo := hb.MergerOptions{Obs: opts.Obs}
	if !opts.Strict {
		mo.Degraded, mo.OnDegrade = &p.deg, p.onDegrade
	}
	p.m = hb.NewMerger(mo)
	p.dec = trace.NewStream(p.onChunk)
	return p
}

// onDegrade fires, once, inside the merger before the first event whose
// ordering was weakened is delivered: every access analyzed from now on
// — starting with that event if it is a sampled access — produces only
// unconfirmed races, exactly as in hb.DetectDegraded.
func (p *Pipeline) onDegrade() {
	p.det.MarkDegraded()
	analyzed := p.det.Result().MemOps
	p.rec.Anomaly(diag.AnomDegradeTransition, -1, analyzed, p.m.Delivered())
	if p.log != nil {
		p.log.Warn("merge degraded: races from here on are unconfirmed",
			"analyzed", analyzed, "delivered", p.m.Delivered())
	}
}

// onChunk receives each accepted thread chunk from the decoder in byte
// order and pumps the merge — the canonical per-chunk cadence batch
// replay follows via trace.Log.ChunkOrder.
func (p *Pipeline) onChunk(tid int32, evs []trace.Event, suspect bool) {
	if p.mergeErr != nil {
		return
	}
	sf := len(evs)
	if suspect {
		sf = 0
	}
	var t0 time.Time
	var d0 uint64
	if p.rec != nil {
		t0 = time.Now()
		d0 = p.m.Delivered()
		p.clkNs, p.clkOps = 0, 0
	}
	if err := p.m.Add(tid, evs, sf); err != nil {
		// Unreachable in this pipeline — the decoder is finished before
		// the merger — but a misuse must not be silently dropped.
		if p.log != nil {
			p.log.Error("merger rejected chunk", "tid", tid, "err", err)
		}
		return
	}
	// handle never fails, and degraded-mode pumping has no other errors;
	// a strict merge fails on a bad counter.
	p.mergeErr = p.m.Pump(p.handle)
	p.obsBacklog.Set(float64(p.m.Backlog()))
	p.obsHWM.Set(float64(p.m.BacklogHighWater()))
	if p.rec != nil {
		delivered := p.m.Delivered()
		p.rec.Span(diag.StageMergerDeliver, tid, t0, time.Since(t0), delivered, delivered-d0)
		if p.clkOps > 0 {
			p.rec.Span(diag.StageClockEngine, tid, t0, time.Duration(p.clkNs), delivered, p.clkOps)
		}
		// A new backlog high watermark at least double the last recorded
		// one (and past a floor) is worth an anomaly record: the merge is
		// buffering badly out-of-order arrivals.
		if hwm := p.m.BacklogHighWater(); hwm >= backlogHWMFloor && hwm >= 2*p.hwmRecorded {
			p.hwmRecorded = hwm
			p.rec.Anomaly(diag.AnomBacklogHighWater, tid, uint64(hwm), delivered)
			if p.log != nil {
				p.log.Warn("merge backlog high watermark", "events", hwm)
			}
		}
	}
}

// backlogHWMFloor is the backlog (events) below which high-watermark
// growth is considered routine and not worth an anomaly record.
const backlogHWMFloor = 1024

// handle hands one merge run to the detector. With a flight recorder
// attached it also times the run's sync event, which the merger always
// puts last.
func (p *Pipeline) handle(run []trace.Event) (int, error) {
	p.obsEvents.Add(uint64(len(run)))
	last := len(run) - 1
	if p.rec == nil || !run[last].Kind.IsSync() {
		p.det.ProcessBatch(run)
		return len(run), nil
	}
	// Accumulate clock-engine wall time per chunk for the flight
	// recorder (one span per chunk, flushed by onChunk).
	p.det.ProcessBatch(run[:last])
	t0 := time.Now()
	p.det.ProcessBatch(run[last:])
	p.clkNs += time.Since(t0).Nanoseconds()
	p.clkOps++
	return len(run), nil
}

// Feed appends encoded log bytes. Chunks completed by this piece are
// decoded, merged and analyzed before Feed returns.
// The error is non-nil only when the input is not an LTRC2 log at all
// (including ErrLegacyStream for LTRC1); damage within the stream is
// recovered from and accounted, never fatal.
func (p *Pipeline) Feed(b []byte) error {
	if p.finished {
		return errors.New("stream: feed after finish")
	}
	p.obsBytes.Add(uint64(len(b)))
	var t0 time.Time
	if p.rec != nil {
		t0 = time.Now()
	}
	err := p.dec.Feed(b)
	if p.rec != nil {
		p.rec.Span(diag.StageChunkDecode, -1, t0, time.Since(t0), p.m.Delivered(), uint64(len(b)))
		p.recordSalvageAnomalies()
	}
	p.obsStalls.Set(float64(p.m.Stalls()))
	p.updateRate()
	return err
}

// recordSalvageAnomalies diffs the decoder's cumulative salvage
// accounting against the last reading and turns every increase into a
// flight-recorder anomaly record (and a structured warning).
func (p *Pipeline) recordSalvageAnomalies() {
	rep := p.dec.Report()
	vclk := p.m.Delivered()
	if d := rep.CRCFailures - p.prevCRC; d > 0 {
		p.prevCRC = rep.CRCFailures
		p.rec.Anomaly(diag.AnomCRCFailure, -1, uint64(d), vclk)
		if p.log != nil {
			p.log.Warn("chunk CRC failure; chunk dropped", "count", d, "total", rep.CRCFailures)
		}
	}
	if d := rep.SeqGaps - p.prevGaps; d > 0 {
		p.prevGaps = rep.SeqGaps
		p.rec.Anomaly(diag.AnomSeqGap, -1, d, vclk)
		if p.log != nil {
			p.log.Warn("chunk sequence gap; events lost", "slots", d, "total", rep.SeqGaps)
		}
	}
	// A resynchronization shows up as dropped bytes (the scan discards
	// them) or dropped chunks; record the byte magnitude.
	if d := rep.BytesDropped - p.prevDropped; d > 0 {
		p.prevDropped = rep.BytesDropped
		p.rec.Anomaly(diag.AnomMarkerResync, -1, uint64(d), vclk)
		if p.log != nil {
			p.log.Warn("resynchronized past damaged bytes", "bytes", d, "total", rep.BytesDropped)
		}
	} else if d := rep.ChunksDropped - p.prevChunks; d > 0 {
		if p.log != nil {
			p.log.Warn("chunk dropped", "count", d, "total", rep.ChunksDropped)
		}
	}
	p.prevChunks = rep.ChunksDropped
}

// rateWindow is the minimum interval between events_per_sec gauge
// refreshes during Feed.
const rateWindow = 100 * time.Millisecond

// updateRate refreshes the stream.events_per_sec gauge with the
// delivery rate over the window since the last refresh, so the gauge
// tracks the live rate instead of holding stale values.
func (p *Pipeline) updateRate() {
	now := time.Now()
	el := now.Sub(p.rateAt)
	if el < rateWindow {
		return
	}
	delivered := p.m.Delivered()
	p.obsEPS.Set(float64(delivered-p.rateDelivered) / el.Seconds())
	p.rateAt, p.rateDelivered = now, delivered
}

// Idle tells the pipeline the input tail has gone idle (a poll interval
// passed with no growth): the events_per_sec gauge decays to zero
// immediately instead of advertising the last burst's rate forever.
func (p *Pipeline) Idle() {
	if p.finished {
		return
	}
	p.obsEPS.Set(0)
	p.rateAt, p.rateDelivered = time.Now(), p.m.Delivered()
}

// Complete reports whether the log's metadata trailer has been decoded —
// the writer closed the log, so no more chunks are coming.
func (p *Pipeline) Complete() bool { return p.dec.Complete() }

// Backlog returns the number of decoded events buffered in the merge
// waiting for an earlier timestamp to arrive.
func (p *Pipeline) Backlog() int { return p.m.Backlog() }

// BacklogHighWater returns the largest merge backlog ever observed.
func (p *Pipeline) BacklogHighWater() int { return p.m.BacklogHighWater() }

// Probe returns the live readings the SLO watchdog evaluates. Call it
// from the feeding goroutine, like Feed.
func (p *Pipeline) Probe() diag.Probe {
	return diag.Probe{Backlog: p.m.Backlog(), BacklogHighWater: p.m.BacklogHighWater()}
}

// Finish declares the input over: the decoder applies its end-of-input
// rules to any torn tail and the merge drains (fast-forwarding stuck
// counters on damaged input). A Strict pipeline fails instead, with
// ReadAll's damaged-log error when the decoder lost anything, else the
// merge's error. Finish is idempotent; Feed errors afterwards.
func (p *Pipeline) Finish() (*Result, error) {
	if p.finished {
		return p.finRes, p.finErr
	}
	p.finished = true
	srep, err := p.dec.Finish()
	if err != nil {
		// Not a log at all.
		p.finErr = err
		return nil, err
	}
	if p.rec != nil {
		// The end-of-input rules may drop a torn tail; account it.
		p.recordSalvageAnomalies()
	}
	if p.opts.Strict {
		err = srep.Err()
	}
	if err == nil {
		err = p.mergeErr
	}
	if err == nil {
		err = p.m.Finish(p.handle)
	}
	if err != nil {
		// Only a strict merge fails: the pass publishes nothing more,
		// as hb.Detect does.
		p.finErr = err
		return nil, err
	}

	res := &Result{
		Result:      *p.det.Result(),
		Degradation: p.deg,
		Salvage:     srep,
		Meta:        p.dec.Meta(),
		Complete:    p.dec.Complete(),
		Stalls:      p.m.Stalls(),
		Elapsed:     time.Since(p.start),
	}
	res.ShardEvents = []uint64{res.MemOps}
	hb.PublishNearMisses(p.opts.Obs, res.NearMisses)
	hb.PublishShadowCells(p.opts.Obs, res.Epoch)
	if sec := res.Elapsed.Seconds(); sec > 0 {
		res.EventsPerSec = float64(p.m.Delivered()) / sec
	}
	p.obsBacklog.Set(float64(p.m.Backlog()))
	p.obsHWM.Set(float64(p.m.BacklogHighWater()))
	p.obsStalls.Set(float64(p.m.Stalls()))
	p.obsEPS.Set(res.EventsPerSec)
	p.finRes = res
	return res, nil
}
