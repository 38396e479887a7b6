package harness

import (
	"testing"
	"time"
)

// TestSoakShortRun is a miniature soak: 3 producers for ~2 seconds with
// a low sample floor. It must pass every gate and record the full
// tracked-series set — the 30s CI shape only stretches the duration.
func TestSoakShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("soak run in -short mode")
	}
	sum, err := BuildSoakSummary(SoakConfig{
		Producers:      3,
		Duration:       2 * time.Second,
		SampleInterval: 50 * time.Millisecond,
		MinSamples:     10,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sum.Pass {
		t.Errorf("soak failed gates: samples=%v heap=%v backlog=%v ships=%v (failures %d)",
			sum.SamplesOK, sum.BoundedHeap, sum.BoundedBacklog, sum.ShipmentsOK, sum.Failures)
	}
	if len(sum.Series) != len(soakTrackedSeries) {
		t.Errorf("tracked series = %d, want %d", len(sum.Series), len(soakTrackedSeries))
	}
	if sum.Kills == 0 {
		t.Error("fault injection never fired")
	}
	if sum.Shipments < uint64(sum.Producers) {
		t.Errorf("only %d shipments across %d producers", sum.Shipments, sum.Producers)
	}
	if sum.TotalSeries <= len(soakTrackedSeries) {
		t.Errorf("store holds %d series; expected fleet.* telemetry beyond the %d tracked",
			sum.TotalSeries, len(soakTrackedSeries))
	}
}
