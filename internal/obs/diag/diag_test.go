package diag

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRecorderIsFreeNoop(t *testing.T) {
	var r *Recorder
	r.Span(StageChunkDecode, 0, time.Now(), time.Millisecond, 1, 2)
	r.Anomaly(AnomCRCFailure, 0, 1, 2)
	if r.Snapshot() != nil {
		t.Fatal("nil recorder Snapshot should be nil")
	}
	if r.Recorded() != 0 || r.Dropped() != 0 || r.Anomalies() != 0 || r.Cap() != 0 {
		t.Fatal("nil recorder counters should read zero")
	}
	if c, n, m := r.StageStats(StageMergerDeliver); c != 0 || n != 0 || m != 0 {
		t.Fatal("nil recorder StageStats should read zero")
	}
	if !r.Epoch().IsZero() {
		t.Fatal("nil recorder Epoch should be zero")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		r.Span(StageMergerDeliver, 1, time.Time{}, 0, 3, 4)
		r.Anomaly(AnomSeqGap, 1, 1, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %v per op, want 0", allocs)
	}
}

func TestEnabledRecordIsAllocFree(t *testing.T) {
	r := NewRecorder(64)
	start := r.Epoch()
	allocs := testing.AllocsPerRun(1000, func() {
		r.Span(StageMergerDeliver, 2, start, time.Microsecond, 10, 20)
		r.Anomaly(AnomBacklogHighWater, 2, 5, 10)
	})
	if allocs != 0 {
		t.Fatalf("enabled record allocated %v per op, want 0", allocs)
	}
}

func TestRecorderRoundTrip(t *testing.T) {
	r := NewRecorder(8)
	r.Span(StageChunkDecode, -1, r.Epoch().Add(5*time.Microsecond), 3*time.Microsecond, 7, 1024)
	r.Anomaly(AnomCRCFailure, 3, 2, 99)

	evs := r.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	sp := evs[0]
	if sp.Kind != KindSpan || sp.Stage != StageChunkDecode || sp.TID != -1 {
		t.Fatalf("span fields wrong: %+v", sp)
	}
	if sp.Wall != 5000 || sp.WallDur != 3000 || sp.VClock != 7 || sp.Items != 1024 {
		t.Fatalf("span payload wrong: %+v", sp)
	}
	an := evs[1]
	if an.Kind != KindAnomaly || an.Anomaly != AnomCRCFailure || an.TID != 3 || an.Items != 2 || an.VClock != 99 {
		t.Fatalf("anomaly payload wrong: %+v", an)
	}
	if got := r.AnomalyCount(AnomCRCFailure); got != 1 {
		t.Fatalf("AnomalyCount = %d, want 1", got)
	}
	if c, total, max := r.StageStats(StageChunkDecode); c != 1 || total != 3000 || max != 3000 {
		t.Fatalf("StageStats = %d %d %d", c, total, max)
	}
}

func TestRingWrapKeepsNewestAndCountsDropped(t *testing.T) {
	r := NewRecorder(4) // power of two already
	for i := 0; i < 10; i++ {
		r.Anomaly(AnomSeqGap, int32(i), uint64(i), 0)
	}
	if r.Recorded() != 10 {
		t.Fatalf("Recorded = %d, want 10", r.Recorded())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	evs := r.Snapshot()
	if len(evs) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(evs))
	}
	for i, e := range evs {
		want := uint64(6 + i)
		if e.Seq != want || e.Items != want {
			t.Fatalf("event %d: seq=%d items=%d, want %d (oldest-first order)", i, e.Seq, e.Items, want)
		}
	}
	// Aggregates are lap-proof.
	if r.AnomalyCount(AnomSeqGap) != 10 {
		t.Fatalf("aggregate anomaly count lost to lap: %d", r.AnomalyCount(AnomSeqGap))
	}
}

func TestConcurrentWritersAndSnapshots(t *testing.T) {
	r := NewRecorder(128)
	const writers, per = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // concurrent reader: snapshots must stay well-formed
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range r.Snapshot() {
				if e.Kind != KindSpan && e.Kind != KindAnomaly {
					t.Errorf("torn record leaked: %+v", e)
					return
				}
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			start := r.Epoch()
			for i := 0; i < per; i++ {
				if i%2 == 0 {
					r.Span(StageMergerDeliver, int32(w), start, time.Nanosecond, uint64(i), 1)
				} else {
					r.Anomaly(AnomBacklogHighWater, int32(w), 1, uint64(i))
				}
			}
		}(w)
	}
	wgDone := make(chan struct{})
	go func() { wg.Wait(); close(wgDone) }()
	// Let writers finish, then stop the reader.
	for r.Recorded() < writers*per {
		time.Sleep(time.Millisecond)
	}
	close(stop)
	<-wgDone
	if r.Recorded() != writers*per {
		t.Fatalf("Recorded = %d, want %d", r.Recorded(), writers*per)
	}
	if got := r.AnomalyCount(AnomBacklogHighWater); got != writers*per/2 {
		t.Fatalf("anomaly aggregate = %d, want %d", got, writers*per/2)
	}
}

func TestWriteJSONL(t *testing.T) {
	r := NewRecorder(16)
	r.Span(StageClockEngine, 1, r.Epoch(), time.Microsecond, 5, 3)
	r.Anomaly(AnomDegradeTransition, -1, 42, 7)
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	var m map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "span" || m["stage"] != "clock-engine" {
		t.Fatalf("span line decoded wrong: %v", m)
	}
	if err := json.Unmarshal([]byte(lines[1]), &m); err != nil {
		t.Fatal(err)
	}
	if m["kind"] != "anomaly" || m["anomaly"] != "degrade-transition" || m["items"] != float64(42) {
		t.Fatalf("anomaly line decoded wrong: %v", m)
	}
}

func TestSLOEvaluateScoring(t *testing.T) {
	r := NewRecorder(16)
	slo := SLO{
		MaxDecodeLag:          100,
		MaxBacklogHighWater:   -1, // disabled
		MaxStageNanos:         -1,
		MaxCRCFailures:        0,
		MaxSeqGaps:            -1,
		MaxResyncs:            -1,
		MaxDegradeTransitions: -1,
		MaxShedEvents:         -1,
		MaxDisconnects:        -1,
	}
	h := slo.Evaluate(r, Probe{Backlog: 5})
	if !h.OK() || h.Status != "ok" || h.Score != 100 {
		t.Fatalf("clean health = %+v", h)
	}
	r.Anomaly(AnomCRCFailure, 0, 1, 0)
	h = slo.Evaluate(r, Probe{Backlog: 5})
	if h.OK() || h.Status != "degraded" || h.Score >= 100 {
		t.Fatalf("degraded health = %+v", h)
	}
	// 1 of 2 enabled checks failing: score drops to 50.
	if h.Score != 50 {
		t.Fatalf("score = %d, want 50", h.Score)
	}
	var failing *Check
	for i := range h.Checks {
		if !h.Checks[i].OK {
			failing = &h.Checks[i]
		}
	}
	if failing == nil || failing.Name != "crc_failures" || failing.Value != 1 {
		t.Fatalf("failing check = %+v", failing)
	}
	// Zero-valued limit means any occurrence breaches; disabled checks
	// never fail even with huge values.
	h = slo.Evaluate(r, Probe{Backlog: 5, BacklogHighWater: 1 << 30})
	for _, c := range h.Checks {
		if c.Name == "backlog_high_water" && !c.OK {
			t.Fatal("disabled check should not fail")
		}
	}
}

func TestWatchdogSustain(t *testing.T) {
	r := NewRecorder(16)
	slo := DefaultSLO()
	slo.SustainPolls = 2
	w := NewWatchdog(slo)

	h := w.Poll(r, Probe{})
	if h.Status != "ok" || w.Sustained() || w.Err() != nil {
		t.Fatalf("clean poll: %+v sustained=%v", h, w.Sustained())
	}
	r.Anomaly(AnomCRCFailure, 0, 1, 0)
	h = w.Poll(r, Probe{})
	if h.Status != "degraded" || h.Sustained || w.Sustained() {
		t.Fatalf("first breach must not sustain yet: %+v", h)
	}
	h = w.Poll(r, Probe{})
	if h.Status != "breached" || !h.Sustained || !w.Sustained() {
		t.Fatalf("second consecutive breach must sustain: %+v", h)
	}
	err := w.Err()
	if !errors.Is(err, ErrSLOBreached) {
		t.Fatalf("Err = %v, want ErrSLOBreached", err)
	}
	if !strings.Contains(err.Error(), "crc_failures") {
		t.Fatalf("Err should name the failing check: %v", err)
	}
	// The breach latches even if later polls are clean... but CRC
	// aggregate never resets, so relax the lag instead to prove latching
	// on the sustained flag itself.
	if h = w.Poll(NewRecorder(16), Probe{}); h.Status != "breached" || !h.Sustained {
		t.Fatalf("sustained breach must latch: %+v", h)
	}
	if w.Health() == nil || w.Health().Polls != 4 {
		t.Fatalf("Health() = %+v", w.Health())
	}
}

func TestWatchdogConsecutiveReset(t *testing.T) {
	slo := DefaultSLO()
	slo.SustainPolls = 3
	slo.MaxDecodeLag = 10
	w := NewWatchdog(slo)
	r := NewRecorder(16)
	w.Poll(r, Probe{Backlog: 100}) // breach 1
	w.Poll(r, Probe{Backlog: 100}) // breach 2
	w.Poll(r, Probe{Backlog: 0})   // recovery resets the streak
	w.Poll(r, Probe{Backlog: 100}) // breach 1 again
	w.Poll(r, Probe{Backlog: 100}) // breach 2
	if w.Sustained() {
		t.Fatal("interrupted breaches must not sustain")
	}
	w.Poll(r, Probe{Backlog: 100}) // breach 3: sustained
	if !w.Sustained() {
		t.Fatal("three consecutive breaches must sustain")
	}
}

func TestStageAndAnomalyNames(t *testing.T) {
	for s := Stage(0); s < numStages; s++ {
		if strings.HasPrefix(s.String(), "stage-") {
			t.Fatalf("stage %d has no name", s)
		}
	}
	for a := Anomaly(0); a < numAnomalies; a++ {
		if strings.HasPrefix(a.String(), "anomaly-") {
			t.Fatalf("anomaly %d has no name", a)
		}
	}
}
