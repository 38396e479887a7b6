package harness

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestOverheadSummaryStable builds the benchmark artifact twice at the
// smallest scale and checks schema, sanity, and byte-for-byte stability.
func TestOverheadSummaryStable(t *testing.T) {
	if testing.Short() {
		t.Skip("full benchmark sweep")
	}
	cfg := Config{Seeds: []int64{1}, Scale: 1}
	sum, err := BuildOverheadSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Schema != OverheadSummarySchema {
		t.Errorf("schema = %q", sum.Schema)
	}
	if len(sum.Benchmarks) == 0 || len(sum.Samplers) == 0 {
		t.Fatalf("empty summary: %d benchmarks, %d samplers", len(sum.Benchmarks), len(sum.Samplers))
	}
	for _, b := range sum.Benchmarks {
		if b.BaselineCycles == 0 {
			t.Errorf("%s: zero baseline cycles", b.Key)
		}
		if b.LiteRaceX < 1 || b.FullX < b.LiteRaceX {
			t.Errorf("%s: implausible slowdowns literace=%.3f full=%.3f", b.Key, b.LiteRaceX, b.FullX)
		}
		if b.FullLogBytes < b.LogBytes {
			t.Errorf("%s: full log (%d B) smaller than sampled log (%d B)", b.Key, b.FullLogBytes, b.LogBytes)
		}
		if !b.Micro && len(b.ESR) == 0 {
			t.Errorf("%s: evaluated benchmark missing ESR block", b.Key)
		}
	}

	a, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	var decoded OverheadSummary
	if err := json.Unmarshal(a, &decoded); err != nil {
		t.Fatalf("artifact not valid JSON: %v", err)
	}

	sum2, err := BuildOverheadSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(sum2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b2) {
		t.Error("artifact not byte-stable across identical runs")
	}
}
