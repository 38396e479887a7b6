package diag

import (
	"testing"
	"time"
)

// BenchmarkDiagDisabledOverhead proves the disabled flight recorder is
// free: recording through a nil *Recorder must be 0 B/op (mirrors
// BenchmarkObsDisabledOverhead for the registry).
func BenchmarkDiagDisabledOverhead(b *testing.B) {
	var r *Recorder
	start := time.Now()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Span(StageChunkDecode, 0, start, time.Microsecond, uint64(i), 1)
		r.Span(StageMergerDeliver, 1, start, time.Microsecond, uint64(i), 256)
		r.Anomaly(AnomBacklogHighWater, 1, 1, uint64(i))
	}
}

// BenchmarkDiagEnabledRecord measures the live recording path; the
// preallocated ring keeps it 0 B/op too.
func BenchmarkDiagEnabledRecord(b *testing.B) {
	r := NewRecorder(DefaultCapacity)
	start := r.Epoch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Span(StageMergerDeliver, 1, start, time.Microsecond, uint64(i), 256)
		r.Anomaly(AnomBacklogHighWater, 1, 1, uint64(i))
	}
}
