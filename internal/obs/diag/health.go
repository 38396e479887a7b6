package diag

import (
	"errors"
	"fmt"
	"sync"
)

// ErrSLOBreached reports a sustained SLO breach. `literace watch -slo`
// maps it to exit code 4, the way ledger.ErrDriftExceeded maps to 3.
var ErrSLOBreached = errors.New("diag: SLO breach sustained")

// SLO is the streaming service-level policy, following the
// ledger.Thresholds knob idiom: a negative value disables that check, a
// zero value means any occurrence at all is a breach, and a positive
// value is the inclusive tolerance.
type SLO struct {
	// MaxDecodeLag bounds the decode→deliver lag: events decoded but
	// still buffered in the merge waiting for earlier timestamps.
	MaxDecodeLag int `json:"max_decode_lag"`
	// MaxBacklogHighWater bounds the lifetime backlog high watermark.
	MaxBacklogHighWater int `json:"max_backlog_high_water"`
	// MaxStageNanos bounds the largest single recorded stage span.
	MaxStageNanos int64 `json:"max_stage_nanos"`
	// MaxCRCFailures bounds dropped-chunk CRC failures.
	MaxCRCFailures int64 `json:"max_crc_failures"`
	// MaxSeqGaps bounds chunk sequence gaps (lost chunks).
	MaxSeqGaps int64 `json:"max_seq_gaps"`
	// MaxResyncs bounds marker resynchronizations (corruption scans).
	MaxResyncs int64 `json:"max_resyncs"`
	// MaxDegradeTransitions bounds degrade transitions; 0 makes
	// any degradation a breach.
	MaxDegradeTransitions int64 `json:"max_degrade_transitions"`
	// MaxShedEvents bounds collector reorder-buffer sheds (bytes
	// abandoned under overload; see AnomShed).
	MaxShedEvents int64 `json:"max_shed_events"`
	// MaxDisconnects bounds producer connections dropped without a clean
	// EOF (see AnomDisconnect).
	MaxDisconnects int64 `json:"max_disconnects"`
	// SustainPolls is how many consecutive breaching evaluations make
	// the breach "sustained" (watch -slo exits 4 only then); values
	// below 1 mean a single breaching poll sustains.
	SustainPolls int `json:"sustain_polls"`
}

// DefaultSLO is a permissive production policy: generous latency and
// backlog bounds, zero tolerance for corruption-class anomalies being
// unbounded, and a short sustain window to ride out transient spikes.
func DefaultSLO() SLO {
	return SLO{
		MaxDecodeLag:          1 << 20,    // 1M buffered events
		MaxBacklogHighWater:   -1,         // informational by default
		MaxStageNanos:         int64(2e9), // any single 2s+ stall
		MaxCRCFailures:        0,          // any corruption breaches
		MaxSeqGaps:            0,          // any lost chunk breaches
		MaxResyncs:            0,          // any resync scan breaches
		MaxDegradeTransitions: 0,          // any degradation breaches
		MaxShedEvents:         -1,         // overload response, not corruption
		MaxDisconnects:        -1,         // producers come and go
		SustainPolls:          3,
	}
}

// Probe carries the live pipeline readings the recorder itself does not
// hold. Fill it on the goroutine that owns the pipeline.
type Probe struct {
	// Backlog is the merge's current decode→deliver lag in events.
	Backlog int `json:"backlog"`
	// BacklogHighWater is the lifetime backlog high watermark.
	BacklogHighWater int `json:"backlog_high_water"`
}

// Check is one evaluated SLO clause.
type Check struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Limit int64  `json:"limit"`
	OK    bool   `json:"ok"`
}

// Health is a scored health report: 100 when every enabled check
// passes, each failing check subtracting its share. Status is "ok"
// (score 100), "degraded" (some checks failing), or "breached" (the
// breach has sustained past SLO.SustainPolls).
type Health struct {
	Status    string  `json:"status"`
	Score     int     `json:"score"`
	Checks    []Check `json:"checks"`
	Sustained bool    `json:"sustained"`
	Polls     int     `json:"polls"`
}

// OK reports whether every enabled check passed.
func (h *Health) OK() bool { return h != nil && h.Score == 100 }

// Evaluate scores the recorder's aggregates and the probe's live
// readings against the policy. rec may be nil (its checks then read 0).
func (s SLO) Evaluate(rec *Recorder, p Probe) *Health {
	var maxStage int64
	for st := Stage(0); st < numStages; st++ {
		if _, _, m := rec.StageStats(st); m > maxStage {
			maxStage = m
		}
	}
	checks := []Check{
		{Name: "decode_lag", Value: int64(p.Backlog), Limit: int64(s.MaxDecodeLag)},
		{Name: "backlog_high_water", Value: int64(p.BacklogHighWater), Limit: int64(s.MaxBacklogHighWater)},
		{Name: "stage_nanos_max", Value: maxStage, Limit: s.MaxStageNanos},
		{Name: "crc_failures", Value: int64(rec.AnomalyCount(AnomCRCFailure)), Limit: s.MaxCRCFailures},
		{Name: "seq_gaps", Value: int64(rec.AnomalyCount(AnomSeqGap)), Limit: s.MaxSeqGaps},
		{Name: "resyncs", Value: int64(rec.AnomalyCount(AnomMarkerResync)), Limit: s.MaxResyncs},
		{Name: "degrade_transitions", Value: int64(rec.AnomalyCount(AnomDegradeTransition)), Limit: s.MaxDegradeTransitions},
		{Name: "shed_events", Value: int64(rec.AnomalyCount(AnomShed)), Limit: s.MaxShedEvents},
		{Name: "disconnects", Value: int64(rec.AnomalyCount(AnomDisconnect)), Limit: s.MaxDisconnects},
	}
	enabled, failing := 0, 0
	for i := range checks {
		c := &checks[i]
		if c.Limit < 0 {
			c.OK = true // disabled
			continue
		}
		enabled++
		c.OK = c.Value <= c.Limit
		if !c.OK {
			failing++
		}
	}
	h := &Health{Status: "ok", Score: 100, Checks: checks}
	if enabled > 0 && failing > 0 {
		h.Score = 100 - (100*failing+enabled-1)/enabled
		h.Status = "degraded"
	}
	return h
}

// Watchdog evaluates an SLO periodically from the pipeline's feeding
// goroutine (Poll) and hands out the last report to concurrent readers
// (Health, for /healthz). It tracks how many consecutive polls breached
// to decide when a breach is sustained.
type Watchdog struct {
	slo SLO

	mu     sync.Mutex
	last   *Health
	consec int
	polls  int
	ever   bool // a sustained breach latches: recovery does not unlatch exit 4
}

// NewWatchdog returns a watchdog enforcing slo.
func NewWatchdog(slo SLO) *Watchdog { return &Watchdog{slo: slo} }

// SLO returns the policy being enforced.
func (w *Watchdog) SLO() SLO { return w.slo }

// Poll evaluates the SLO once and returns the report. Call it from the
// goroutine that owns the pipeline (the probe readings are not
// synchronized); the stored report is safe to read concurrently.
func (w *Watchdog) Poll(rec *Recorder, p Probe) *Health {
	h := w.slo.Evaluate(rec, p)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.polls++
	if h.Score < 100 {
		w.consec++
	} else {
		w.consec = 0
	}
	sustain := w.slo.SustainPolls
	if sustain < 1 {
		sustain = 1
	}
	if w.consec >= sustain {
		w.ever = true
	}
	if w.ever {
		h.Sustained = true
		h.Status = "breached"
	}
	h.Polls = w.polls
	w.last = h
	return h
}

// Health returns the most recent report (nil before the first Poll).
// Safe for concurrent use — this is the /healthz read side.
func (w *Watchdog) Health() *Health {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// Sustained reports whether a breach has lasted SustainPolls
// consecutive polls at any point (it latches).
func (w *Watchdog) Sustained() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ever
}

// Err returns nil, or an error wrapping ErrSLOBreached describing the
// latest failing checks once a breach has sustained.
func (w *Watchdog) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.ever {
		return nil
	}
	detail := ""
	if w.last != nil {
		for _, c := range w.last.Checks {
			if !c.OK {
				if detail != "" {
					detail += ", "
				}
				detail += fmt.Sprintf("%s=%d>%d", c.Name, c.Value, c.Limit)
			}
		}
	}
	if detail == "" {
		return ErrSLOBreached
	}
	return fmt.Errorf("%w: %s", ErrSLOBreached, detail)
}
