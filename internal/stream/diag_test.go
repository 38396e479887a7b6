package stream_test

import (
	"reflect"
	"testing"
	"time"

	"literace/internal/hb"
	"literace/internal/obs"
	"literace/internal/obs/diag"
	"literace/internal/stream"
)

// TestFlightRecorderCleanRun checks a pristine log records spans for
// every pipeline stage and no anomalies, and that recording does not
// perturb the detection result.
func TestFlightRecorderCleanRun(t *testing.T) {
	b := mustBench(t, "apache-1")
	data := genLog(t, b, 3, 1)

	base := runPipeline(t, data, []int{777})

	rec := diag.NewRecorder(1 << 14)
	p := stream.New(stream.Options{Diag: rec})
	for off := 0; off < len(data); off += 777 {
		end := off + 777
		if end > len(data) {
			end = len(data)
		}
		if err := p.Feed(data[off:end]); err != nil {
			t.Fatal(err)
		}
	}
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRaces != base.NumRaces || res.MemOps != base.MemOps {
		t.Fatalf("recording changed the result: %d/%d races, %d/%d mem ops",
			res.NumRaces, base.NumRaces, res.MemOps, base.MemOps)
	}
	for _, st := range []diag.Stage{
		diag.StageChunkDecode, diag.StageMergerDeliver, diag.StageClockEngine,
	} {
		if c, _, _ := rec.StageStats(st); c == 0 {
			t.Errorf("no spans recorded for stage %s", st)
		}
	}
	// Backlog watermarks are load artifacts and may legitimately occur
	// on a clean log; corruption-class anomalies must not.
	for _, a := range []diag.Anomaly{
		diag.AnomCRCFailure, diag.AnomSeqGap, diag.AnomMarkerResync, diag.AnomDegradeTransition,
	} {
		if n := rec.AnomalyCount(a); n != 0 {
			t.Errorf("clean run recorded %d %s anomalies", n, a)
		}
	}
	if rec.Recorded() == 0 {
		t.Fatal("ring is empty")
	}
}

// TestFlightRecorderDamagedLog checks corruption shows up as anomaly
// records: a flipped bit must produce CRC/resync accounting and, once
// the merge weakens orderings, a degrade transition.
func TestFlightRecorderDamagedLog(t *testing.T) {
	b := mustBench(t, "apache-2")
	data := genLog(t, b, 2, 1)
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0x40

	rec := diag.NewRecorder(1 << 14)
	p := stream.New(stream.Options{Diag: rec})
	if err := p.Feed(mut); err != nil {
		t.Fatal(err)
	}
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Salvage.Lossy() {
		t.Skip("bit flip landed somewhere harmless")
	}
	if rec.Anomalies() == 0 {
		t.Fatalf("lossy run recorded no anomalies (salvage: %+v)", res.Salvage)
	}
	if res.Salvage.CRCFailures > 0 && rec.AnomalyCount(diag.AnomCRCFailure) == 0 {
		t.Fatal("CRC failure not recorded as anomaly")
	}
	if res.Salvage.BytesDropped > 0 && rec.AnomalyCount(diag.AnomMarkerResync) == 0 {
		t.Fatal("dropped bytes not recorded as resync anomaly")
	}
	if res.Degraded && rec.AnomalyCount(diag.AnomDegradeTransition) == 0 {
		t.Fatal("degrade transition not recorded")
	}
}

// TestEventsPerSecIdleDecay checks the staleness fix: the live gauge
// updates during Feed and drops to zero when the tail goes idle.
func TestEventsPerSecIdleDecay(t *testing.T) {
	b := mustBench(t, "apache-1")
	data := genLog(t, b, 3, 1)
	reg := obs.New()
	g := reg.Gauge("stream.events_per_sec")
	p := stream.New(stream.Options{Obs: reg})

	half := len(data) / 2
	if err := p.Feed(data[:half]); err != nil {
		t.Fatal(err)
	}
	// Let the rate window elapse so the next Feed refreshes the gauge.
	time.Sleep(120 * time.Millisecond)
	if err := p.Feed(data[half:]); err != nil {
		t.Fatal(err)
	}
	if g.Value() <= 0 {
		t.Fatalf("live gauge not refreshed during Feed: %v", g.Value())
	}
	p.Idle()
	if g.Value() != 0 {
		t.Fatalf("gauge did not decay to zero on idle: %v", g.Value())
	}
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	// Finish still publishes the whole-run rate.
	if res.EventsPerSec > 0 && g.Value() != res.EventsPerSec {
		t.Fatalf("final gauge %v != result %v", g.Value(), res.EventsPerSec)
	}
}

// TestPipelineProbeAndHighWater checks the SLO probe surface: the
// backlog high watermark is monotone and survives the drain.
func TestPipelineProbeAndHighWater(t *testing.T) {
	b := mustBench(t, "apache-1")
	data := genLog(t, b, 3, 1)
	p := stream.New(stream.Options{})
	if err := p.Feed(data); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	pr := p.Probe()
	if pr.Backlog != 0 {
		t.Fatalf("drained pipeline backlog = %d", pr.Backlog)
	}
	if pr.BacklogHighWater < pr.Backlog || p.BacklogHighWater() != pr.BacklogHighWater {
		t.Fatalf("high watermark inconsistent: %+v vs %d", pr, p.BacklogHighWater())
	}
}

// TestFlightRecorderKeepsResult checks that attaching a recorder, which
// sends every merge run through the branch that times its sync event,
// changes nothing a caller sees: the same Result and the same OnRace
// calls, on a clean full log and on a damaged copy that degrades.
func TestFlightRecorderKeepsResult(t *testing.T) {
	data := genLog(t, mustBench(t, "apache-1"), 3, 1)
	damaged := append([]byte(nil), data...)
	damaged[len(damaged)/3] ^= 0x40
	for _, tc := range []struct {
		name string
		data []byte
	}{{"clean", data}, {"damaged", damaged}} {
		run := func(rec *diag.Recorder) (*stream.Result, []hb.DynamicRace) {
			var races []hb.DynamicRace
			res := runPipelineOpts(t, tc.data, stream.Options{
				Diag: rec, Evidence: true, NearMissMargin: hb.DefaultNearMissMargin,
				OnRace: func(r hb.DynamicRace) { races = append(races, r) },
			}, []int{777, 64 << 10})
			res.Elapsed, res.EventsPerSec = 0, 0
			return res, races
		}
		plain, plainRaces := run(nil)
		rec := diag.NewRecorder(1 << 12)
		recorded, recordedRaces := run(rec)
		if c, _, _ := rec.StageStats(diag.StageClockEngine); c == 0 {
			t.Fatalf("%s: no clock-engine spans recorded", tc.name)
		}
		if plain.NumRaces == 0 || plain.Degraded != (tc.name == "damaged") {
			t.Fatalf("%s: %d races, degraded %v", tc.name, plain.NumRaces, plain.Degraded)
		}
		if !reflect.DeepEqual(recorded, plain) {
			t.Fatalf("%s: recording changed the result:\n got: %+v\nwant: %+v", tc.name, recorded, plain)
		}
		if !reflect.DeepEqual(recordedRaces, plainRaces) {
			t.Fatalf("%s: recording changed the OnRace sequence (%d vs %d calls)", tc.name, len(recordedRaces), len(plainRaces))
		}
	}
}
