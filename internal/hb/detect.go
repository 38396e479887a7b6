package hb

import (
	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/shadow"
	"literace/internal/trace"
)

// EngineEpoch names the epoch fast-path core (internal/shadow), the
// only detection core. It is kept, with Options.Engine, for callers that
// still name it; neither selects anything.
const EngineEpoch = "epoch"

// DynamicRace is one detected conflicting access pair: the earlier access
// (in the replayed order) is Prev, the later one is Cur, and neither
// happens-before the other. At least one of the two is a write.
type DynamicRace struct {
	PrevPC    lir.PC
	CurPC     lir.PC
	PrevWrite bool
	CurWrite  bool
	PrevTID   int32
	CurTID    int32
	Addr      uint64

	// PrevSeq and CurSeq are the 1-based ordinals of the two accesses
	// within their respective threads' analyzed memory events. When the
	// pass analyzes every logged access (SamplerBit == AllEvents) these
	// match the per-thread logged-memory ordinals the runtime's coverage
	// collector records, so a race can be attributed to the sampling
	// burst(s) that captured each side (coverprof.Collector.BurstOf).
	// Under a mask-filtered pass the ordinals count only the filtered
	// subset and do not line up with runtime coverage.
	PrevSeq uint64
	CurSeq  uint64

	// Unconfirmed marks a race first observed after the detector entered
	// degraded mode (MarkDegraded): some happens-before edge may have
	// been lost with the damaged part of the log, so the pair could be a
	// false positive. The paper's zero-false-positive guarantee (§4)
	// holds only for confirmed races.
	Unconfirmed bool

	// PrevEvidence and CurEvidence carry the forensic snapshots of the
	// two accesses when Options.Evidence is set; nil otherwise. The
	// snapshots are immutable and byte-comparable between the batch
	// detector and the streaming pipeline.
	PrevEvidence *AccessEvidence
	CurEvidence  *AccessEvidence
}

// Edge is one cross-thread happens-before edge: a release by FromTID on
// sync var Var that a later acquire by ToTID synchronized with. The
// releasing event is identified by its (Counter, TS) pair, which is
// unique across the whole log (per-counter timestamps are dense), so
// consumers can map the edge back to a concrete logged event.
type Edge struct {
	Var     uint64 // sync var address
	Counter uint8  // timestamp counter of the release event
	TS      uint64 // timestamp of the release event within Counter
	FromTID int32  // releasing thread
	ToTID   int32  // acquiring thread
	FromPC  lir.PC // program counter of the release
	ToPC    lir.PC // program counter of the acquire
}

// Options configures a detection pass.
type Options struct {
	// SamplerBit filters memory events: only events whose Mask has this
	// bit set are analyzed. Use AllEvents to analyze every logged access.
	// Synchronization events are always processed (§3.2: all sync ops are
	// logged precisely so no subset introduces false positives).
	SamplerBit int

	// OnRace, when non-nil, is invoked for each dynamic race as it is
	// found (streaming consumers); races are also accumulated in Result.
	OnRace func(DynamicRace)

	// OnEdge, when non-nil, is invoked for each cross-thread
	// happens-before edge as an acquire synchronizes with an earlier
	// release by a different thread. Same-thread release/acquire pairs
	// are not reported (program order already covers them). Edge
	// tracking costs one map entry per sync var and is skipped entirely
	// when OnEdge is nil.
	OnEdge func(Edge)

	// KeepMax bounds the number of dynamic races retained in
	// Result.Races; 0 means unlimited. Counting is never truncated.
	KeepMax int

	// Obs, when non-nil, receives detection telemetry: processed event
	// counts, vector-clock join counts, dynamic races found, and (via
	// Detect) replay ready-queue stalls.
	Obs *obs.Registry

	// Evidence enables forensic evidence capture: every reported race
	// carries an immutable AccessEvidence snapshot for both accesses
	// (vector clock, last release/acquire, held lockset). Costs one
	// small allocation per tracked access; off by default.
	Evidence bool

	// NearMissMargin enables near-miss analytics when positive: every
	// cross-thread conflicting pair that IS ordered by happens-before,
	// with strictly fewer than NearMissMargin clock ticks of slack, is
	// counted per static PC pair (Result.NearMisses and the
	// hb.near_miss.* obs family). 0 (the default) disables.
	NearMissMargin int

	// Engine is ignored: the epoch core is the only detection core.
	Engine string

	// ShadowMaxCells bounds the shadow-memory table (see
	// shadow.Options.MaxCells); 0 means unbounded. Only the unbounded
	// default preserves exact parity with the reference detector — a
	// bounded table may miss races, never invent them.
	ShadowMaxCells int
}

// AllEvents is the SamplerBit value that disables mask filtering.
const AllEvents = -1

// Result is the outcome of a detection pass.
type Result struct {
	Races    []DynamicRace // dynamic race occurrences, in replay order
	NumRaces uint64        // total dynamic races, even beyond KeepMax
	MemOps   uint64        // memory events analyzed (after filtering)
	SyncOps  uint64        // sync events processed

	// Unconfirmed counts the dynamic races (within NumRaces) first
	// observed after the detector entered degraded mode.
	Unconfirmed uint64
	// Degraded reports whether the detector ever entered degraded mode.
	Degraded bool

	// NearMisses lists the ordered conflicting pairs that stayed within
	// Options.NearMissMargin, grouped per static pair and sorted; nil
	// when near-miss analytics were off.
	NearMisses []NearMiss

	// Epoch carries the epoch engine's core statistics.
	Epoch *shadow.Stats
}

// Confirmed returns the dynamic races found while every happens-before
// edge was still intact — the subset the zero-false-positive guarantee
// covers.
func (r *Result) Confirmed() uint64 { return r.NumRaces - r.Unconfirmed }

// Detector is a streaming happens-before race detector. Feed it events in
// a legal global order (e.g. via Replay); it reports races through opts.
type Detector struct {
	opts     Options
	res      Result
	degraded bool
	clk      *clockEngine
	eng      *shadow.Engine
	near     *nearAccum // near-miss accumulator; nil when disabled

	obsRaces *obs.Counter // hb.dynamic_races; nil-safe
}

// NewDetector returns a detector with the given options.
func NewDetector(opts Options) *Detector {
	d := &Detector{
		opts: opts,
		clk:  newClockEngine(opts),
		near: newNearAccum(opts.NearMissMargin),
	}
	if opts.Obs != nil {
		d.obsRaces = opts.Obs.Counter("hb.dynamic_races")
	}
	so := shadow.Options{
		MaxCells: opts.ShadowMaxCells,
		Obs:      opts.Obs,
		OnRace: func(prev shadow.Prev, cur *shadow.Access) {
			r := DynamicRace{
				PrevPC: prev.PC, CurPC: cur.PC,
				PrevWrite: prev.Write, CurWrite: cur.Write,
				PrevTID: prev.TID, CurTID: cur.TID,
				PrevSeq: prev.Seq, CurSeq: cur.Seq,
				Addr: cur.Addr,
			}
			if prev.Ev != nil {
				r.PrevEvidence = prev.Ev.(*AccessEvidence)
			}
			if cur.Ev != nil {
				r.CurEvidence = cur.Ev.(*AccessEvidence)
			}
			d.report(r)
		},
	}
	if d.near != nil {
		so.OnOrdered = d.near.Note
	}
	d.eng = shadow.NewEngine(so)
	return d
}

// Process consumes one event.
func (d *Detector) Process(e trace.Event) { d.process(&e) }

// ProcessBatch consumes a pre-materialized event sequence in order. It
// is equivalent to calling Process per element, minus one 48-byte
// event copy per call — at tens of millions of events per second the
// copies are a measurable tax.
func (d *Detector) ProcessBatch(events []trace.Event) {
	for i := range events {
		d.process(&events[i])
	}
}

// process never retains e past the call.
func (d *Detector) process(e *trace.Event) {
	switch e.Kind {
	case trace.KindAcquire, trace.KindRelease, trace.KindAcqRel:
		d.clk.Sync(e)
	case trace.KindRead, trace.KindWrite:
		t := d.clk.Access(e)
		switch {
		case t == nil:
		case d.opts.Evidence:
			d.eng.Access(&shadow.Access{
				Addr: e.Addr, Seq: t.MemSeq, TID: e.TID, Write: e.Kind == trace.KindWrite,
				PC: e.PC, VC: t.VC, Ev: t.Evidence(),
			})
		case e.Kind == trace.KindWrite:
			// Plain runs hand the engine the live clock: it only reads
			// it during the call.
			d.eng.Write(e.Addr, t.MemSeq, e.TID, e.PC, t.VC)
		default:
			d.eng.Read(e.Addr, t.MemSeq, e.TID, e.PC, t.VC)
		}
	}
}

// MarkDegraded switches the detector into degraded mode: every race
// reported from now on is tagged unconfirmed. Degraded replay calls it
// the moment an ordering is weakened; it is idempotent.
func (d *Detector) MarkDegraded() {
	d.degraded = true
	d.res.Degraded = true
}

func (d *Detector) report(r DynamicRace) {
	if d.degraded {
		r.Unconfirmed = true
		d.res.Unconfirmed++
	}
	d.res.NumRaces++
	d.obsRaces.Inc()
	if d.opts.OnRace != nil {
		d.opts.OnRace(r)
	}
	if d.opts.KeepMax == 0 || len(d.res.Races) < d.opts.KeepMax {
		d.res.Races = append(d.res.Races, r)
	}
}

// Result returns the accumulated detection result.
func (d *Detector) Result() *Result {
	d.res.MemOps, d.res.SyncOps = d.clk.MemOps, d.clk.SyncOps
	d.res.NearMisses = d.near.Rows()
	s := d.eng.Stats()
	d.res.Epoch = &s
	return &d.res
}

// publish publishes the end-of-pass telemetry into Options.Obs: the
// near-miss rows and the shadow.cells gauge (the engine's counters
// stream live during the pass). Detect and DetectDegraded call it once
// the pass is over.
func (d *Detector) publish() {
	res := d.Result()
	PublishNearMisses(d.opts.Obs, res.NearMisses)
	PublishShadowCells(d.opts.Obs, res.Epoch)
}

// PublishShadowCells sets the shadow.cells gauge of reg (nil-safe) to
// the live cells in s.
func PublishShadowCells(reg *obs.Registry, s *shadow.Stats) {
	if reg != nil {
		reg.Gauge("shadow.cells").Set(float64(s.Cells))
	}
}

// processRun is a Merger consumer that feeds each run to the detector.
func (d *Detector) processRun(run []trace.Event) (int, error) {
	d.ProcessBatch(run)
	return len(run), nil
}

// Detect replays log and runs happens-before detection over it.
func Detect(log *trace.Log, opts Options) (*Result, error) {
	d := NewDetector(opts)
	if _, err := replay(log, opts.Obs, nil, nil, d.processRun); err != nil {
		return nil, err
	}
	d.publish()
	return d.Result(), nil
}

// DetectDegraded replays a possibly damaged log (see ReplayDegraded) and
// runs happens-before detection over it. Races first observed after the
// replay weakened an ordering are tagged unconfirmed; the confirmed
// subset keeps the no-false-positive guarantee.
func DetectDegraded(log *trace.Log, opts Options) (*Result, *Degradation, error) {
	d := NewDetector(opts)
	deg, err := replay(log, opts.Obs, &Degradation{}, d.MarkDegraded, d.processRun)
	if err != nil {
		return nil, nil, err
	}
	d.publish()
	return d.Result(), deg, nil
}
