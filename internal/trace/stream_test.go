package trace

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
)

// pieceReader serves data in short reads of the given sizes (cycled; a
// size of 0 means whatever the caller's buffer holds), the way a socket
// or a growing file hands the decoder its input.
type pieceReader struct {
	data  []byte
	sizes []int
	i     int
}

func (r *pieceReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := r.sizes[r.i%len(r.sizes)]
	r.i++
	if n <= 0 || n > len(p) {
		n = len(p)
	}
	n = copy(p[:n], r.data)
	r.data = r.data[n:]
	return n, nil
}

// salvagePieces runs Salvage over data delivered in reads of the given
// sizes.
func salvagePieces(data []byte, sizes []int) (*Log, *SalvageReport, error) {
	return Salvage(&pieceReader{data: data, sizes: sizes})
}

// checkStreamMatchesSalvage asserts that the size of the reads the
// decoder is fed — at every piece-size pattern given, including ones
// that split the magic, a marker or a chunk header across reads —
// cannot change what Salvage accepts or how it accounts for it.
func checkStreamMatchesSalvage(t *testing.T, data []byte, sizePatterns [][]int) {
	t.Helper()
	slog, srep, serr := Salvage(bytes.NewReader(data))
	for _, sizes := range sizePatterns {
		glog, grep, gerr := salvagePieces(data, sizes)
		if (serr != nil) != (gerr != nil) {
			t.Fatalf("sizes %v: whole-read err %v, piecewise err %v", sizes, serr, gerr)
		}
		if serr != nil {
			continue
		}
		if !reflect.DeepEqual(glog.Threads, slog.Threads) {
			t.Fatalf("sizes %v: piecewise decode found different events", sizes)
		}
		if !reflect.DeepEqual(glog.ChunkOrder, slog.ChunkOrder) {
			t.Fatalf("sizes %v: chunk order %v != whole-read %v", sizes, glog.ChunkOrder, slog.ChunkOrder)
		}
		if !reflect.DeepEqual(glog.Degraded, slog.Degraded) {
			t.Fatalf("sizes %v: degraded marks %v != whole-read %v", sizes, glog.Degraded, slog.Degraded)
		}
		if !reflect.DeepEqual(glog.Meta, slog.Meta) {
			t.Fatalf("sizes %v: meta %+v != whole-read %+v", sizes, glog.Meta, slog.Meta)
		}
		if !reflect.DeepEqual(grep, srep) {
			t.Fatalf("sizes %v: report %+v != whole-read %+v", sizes, grep, srep)
		}
		checkRecon(t, grep)
	}
}

var streamSizePatterns = [][]int{{0}, {1}, {3, 17, 1}, {257}, {64 << 10}}

func TestStreamPristineMatchesReadAll(t *testing.T) {
	data, want := buildLog(t, 11, 3, 200, 64)
	checkStreamMatchesSalvage(t, data, streamSizePatterns)

	log, rep, err := salvagePieces(data, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lossy() {
		t.Errorf("pristine log reported lossy: %s", rep.Summary())
	}
	if rep.MetaSource != "trailer" || log.Meta.Module != "salvage-test" {
		t.Errorf("meta source %q module %q", rep.MetaSource, log.Meta.Module)
	}
	for tid, evs := range want {
		if !reflect.DeepEqual(log.Threads[tid], evs) {
			t.Errorf("thread %d: stream decoded %d events, want %d", tid, len(log.Threads[tid]), len(evs))
		}
	}
}

func TestStreamCompleteFlag(t *testing.T) {
	data, _ := buildLog(t, 12, 2, 50, 25)
	s := NewStream(nil)
	// Everything but the trailer's last byte: not complete.
	if err := s.Feed(data[:len(data)-1]); err != nil {
		t.Fatal(err)
	}
	if s.Complete() {
		t.Fatal("stream complete before the trailer finished")
	}
	if s.Buffered() == 0 {
		t.Fatal("expected the torn trailer to be buffered")
	}
	if err := s.Feed(data[len(data)-1:]); err != nil {
		t.Fatal(err)
	}
	if !s.Complete() {
		t.Fatal("stream not complete after the full trailer")
	}
	if s.Buffered() != 0 {
		t.Fatalf("%d bytes still buffered after a complete log", s.Buffered())
	}
	rep, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lossy() {
		t.Errorf("complete log reported lossy: %s", rep.Summary())
	}
}

func TestStreamTruncationAtEveryChunkBoundary(t *testing.T) {
	data, _ := buildLog(t, 13, 2, 300, 50)
	spans, err := ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, span := range spans {
		for _, cut := range []int{span.Start, span.Start + 5, span.End - 1} {
			checkStreamMatchesSalvage(t, data[:cut], [][]int{{0}, {7}})
		}
	}
}

func TestStreamBitFlipsMatchSalvage(t *testing.T) {
	data, _ := buildLog(t, 14, 3, 200, 40)
	r := rand.New(rand.NewSource(99))
	for i := 0; i < 40; i++ {
		mut := append([]byte(nil), data...)
		mut[len(magic)+r.Intn(len(mut)-len(magic))] ^= 1 << uint(r.Intn(8))
		checkStreamMatchesSalvage(t, mut, [][]int{{0}, {13}})
	}
}

func TestStreamChunkDropAndDupMatchSalvage(t *testing.T) {
	data, _ := buildLog(t, 15, 2, 300, 30)
	spans, err := ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		sp := spans[r.Intn(len(spans))]
		dropped := append(append([]byte(nil), data[:sp.Start]...), data[sp.End:]...)
		checkStreamMatchesSalvage(t, dropped, [][]int{{0}, {11}})
		duped := append(append([]byte(nil), data[:sp.End]...), data[sp.Start:]...)
		checkStreamMatchesSalvage(t, duped, [][]int{{0}, {11}})
	}
}

func TestStreamTornTailThenCompletes(t *testing.T) {
	data, _ := buildLog(t, 16, 3, 400, 60)
	spans, err := ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	// Cut in the middle of a mid-log chunk, then deliver the rest: the
	// stream must wait (no truncation) and end up identical to a
	// single-shot decode.
	cut := spans[len(spans)/2].Start + 3
	whole, wholeRep, err := Salvage(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(nil)
	if err := s.Feed(data[:cut]); err != nil {
		t.Fatal(err)
	}
	if s.Report().Truncated {
		t.Fatal("live stream flagged truncation before Finish")
	}
	got := &Log{Threads: make(map[int32][]Event)}
	s2 := NewStream(func(tid int32, evs []Event, _ bool) {
		got.Threads[tid] = append(got.Threads[tid], evs...)
	})
	if err := s2.Feed(data[:cut]); err != nil {
		t.Fatal(err)
	}
	if err := s2.Feed(data[cut:]); err != nil {
		t.Fatal(err)
	}
	rep, err := s2.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Threads, whole.Threads) {
		t.Fatal("torn-then-completed decode differs from single-shot decode")
	}
	if !reflect.DeepEqual(rep, wholeRep) {
		t.Fatalf("torn-then-completed report %+v != single-shot %+v", rep, wholeRep)
	}
}

func TestStreamTrailingGarbageDrainedBeforeFinish(t *testing.T) {
	// Corrupt the last chunk's marker so the tail becomes a garbage run
	// with no later marker, and feed so the run is fully dropped before
	// Finish — the truncation flag must survive the empty buffer.
	data, _ := buildLog(t, 18, 2, 200, 40)
	spans, err := ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	last := spans[len(spans)-1]
	for b := 0; b < len(chunkMarker); b++ {
		mut := append([]byte(nil), data...)
		mut[last.Start+b] ^= 0x55
		checkStreamMatchesSalvage(t, mut, [][]int{{0}, {1}, {len(mut) - 2}})
	}
}

func TestStreamRejectsLegacyAndGarbage(t *testing.T) {
	s := NewStream(nil)
	if err := s.Feed([]byte("LTRC1\nxxxx")); !errors.Is(err, ErrLegacyStream) {
		t.Fatalf("LTRC1 feed error = %v, want ErrLegacyStream", err)
	}
	s = NewStream(nil)
	if err := s.Feed([]byte("GIF89a")); err == nil {
		t.Fatal("garbage accepted")
	}
	// A short prefix that can still become a magic is not an error yet,
	// and a producer dying there finishes cleanly with the bytes
	// accounted as dropped (see TestStreamDeadProducerFinishesCleanly).
	s = NewStream(nil)
	if err := s.Feed([]byte("LT")); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Finish()
	if err != nil {
		t.Fatalf("finish on an incomplete magic: %v", err)
	}
	if rep.Truncated || rep.BytesDropped != 2 || rep.TotalBytes != 2 {
		t.Fatalf("incomplete-magic report = %+v", rep)
	}
}

// TestStreamDeadProducerFinishesCleanly covers a producer that connects
// and dies before its first complete chunk: zero-byte and sub-header
// inputs must Finish without error and with accurate accounting — no
// spurious torn tail, no "not a log" failure for a prefix of a valid log.
func TestStreamDeadProducerFinishesCleanly(t *testing.T) {
	// Zero bytes: nothing arrived at all.
	s := NewStream(nil)
	rep, err := s.Finish()
	if err != nil {
		t.Fatalf("zero-byte finish: %v", err)
	}
	if rep.Truncated || rep.TotalBytes != 0 || rep.BytesDropped != 0 ||
		rep.ChunksOK != 0 || rep.EventsSalvaged != 0 || rep.MetaSource != "none" {
		t.Fatalf("zero-byte report = %+v", rep)
	}

	// Every proper prefix of the magic, fed in one piece and byte by
	// byte: clean Finish, all bytes dropped, never truncated.
	for cut := 1; cut < len("LTRC2\n"); cut++ {
		for _, pieces := range [][]byte{[]byte("LTRC2\n")[:cut]} {
			one := NewStream(nil)
			if err := one.Feed(pieces); err != nil {
				t.Fatalf("prefix %d feed: %v", cut, err)
			}
			rep, err := one.Finish()
			if err != nil {
				t.Fatalf("prefix %d finish: %v", cut, err)
			}
			if rep.Truncated || rep.TotalBytes != int64(cut) || rep.BytesDropped != int64(cut) {
				t.Fatalf("prefix %d report = %+v", cut, rep)
			}
		}
		drip := NewStream(nil)
		for _, b := range []byte("LTRC2\n")[:cut] {
			if err := drip.Feed([]byte{b}); err != nil {
				t.Fatalf("prefix %d drip feed: %v", cut, err)
			}
		}
		rep, err := drip.Finish()
		if err != nil {
			t.Fatalf("prefix %d drip finish: %v", cut, err)
		}
		if rep.Truncated || rep.BytesDropped != int64(cut) {
			t.Fatalf("prefix %d drip report = %+v", cut, rep)
		}
	}

	// The full magic and nothing else is still clean: the writer opened
	// the log and never flushed a chunk.
	m := NewStream(nil)
	if err := m.Feed([]byte("LTRC2\n")); err != nil {
		t.Fatal(err)
	}
	rep, err = m.Finish()
	if err != nil {
		t.Fatalf("magic-only finish: %v", err)
	}
	if rep.Truncated || rep.BytesDropped != 0 || rep.MagicBytes != 6 {
		t.Fatalf("magic-only report = %+v", rep)
	}
}

func TestStreamFeedAfterFinish(t *testing.T) {
	data, _ := buildLog(t, 17, 1, 10, 0)
	s := NewStream(nil)
	if err := s.Feed(data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := s.Feed([]byte{1}); err == nil {
		t.Fatal("feed after finish succeeded")
	}
}

// TestStreamFeedAllocsBoundedByPieces pins that feeding a clean log in
// many pieces allocates a bounded working set — the retained input
// buffer and the decode scratch — instead of a fresh buffer whenever a
// chunk straddles two pieces, which made the decoder's garbage grow
// with the input.
func TestStreamFeedAllocsBoundedByPieces(t *testing.T) {
	data, _ := buildLog(t, 21, 4, 20000, 300)
	const piece = 4 << 10
	pieces := (len(data) + piece - 1) / piece
	run := func() {
		s := NewStream(func(int32, []Event, bool) {})
		for off := 0; off < len(data); off += piece {
			if err := s.Feed(data[off:min(off+piece, len(data))]); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5, run)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d bytes in %d pieces: %.0f allocs, %d bytes allocated", len(data), pieces, allocs, bytes)
	// What remains is per decoder and per metadata checkpoint.
	if allocs > float64(pieces)/2 {
		t.Errorf("%.0f allocations for %d pieces; want well under one per piece", allocs, pieces)
	}
	if limit := uint64(len(data) / 8); bytes > limit {
		t.Errorf("allocated %d bytes decoding a %d-byte log; want < %d (bounded by piece and chunk size)", bytes, len(data), limit)
	}
}
