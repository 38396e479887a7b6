package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"literace/internal/lir"
	"literace/internal/obs"
)

// obsNew keeps the telemetry tests terse.
func obsNew() *obs.Registry { return obs.New() }

func TestCounterOfInRangeAndSpread(t *testing.T) {
	seen := make(map[uint8]bool)
	for i := uint64(0); i < 10000; i++ {
		c := CounterOf(i)
		if int(c) >= NumCounters {
			t.Fatalf("counter %d out of range", c)
		}
		seen[c] = true
	}
	if len(seen) < NumCounters {
		t.Errorf("only %d/%d counters used across 10k syncvars", len(seen), NumCounters)
	}
	// Deterministic.
	if CounterOf(42) != CounterOf(42) {
		t.Error("CounterOf not deterministic")
	}
}

func TestSyncVarNamespaces(t *testing.T) {
	// Thread, page, and plain-address SyncVars must never collide.
	addrs := []uint64{0, 1, 512, 1 << 20}
	for _, a := range addrs {
		tv := ThreadVar(int32(a))
		pv := PageVar(a)
		if tv == a || pv == a || tv == pv {
			t.Errorf("namespace collision for %d: thread=%#x page=%#x", a, tv, pv)
		}
	}
	if ThreadVar(1) == ThreadVar(2) || PageVar(1) == PageVar(2) {
		t.Error("distinct ids collide within a namespace")
	}
}

func TestKindClassification(t *testing.T) {
	if !KindRead.IsMem() || !KindWrite.IsMem() {
		t.Error("read/write should be memory kinds")
	}
	for _, k := range []Kind{KindAcquire, KindRelease, KindAcqRel} {
		if k.IsMem() || !k.IsSync() {
			t.Errorf("%v misclassified", k)
		}
	}
	if KindRead.IsSync() {
		t.Error("read is not sync")
	}
}

func TestStringers(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	for o := SyncOp(0); o < numSyncOps; o++ {
		if strings.HasPrefix(o.String(), "syncop(") {
			t.Errorf("syncop %d has no name", o)
		}
	}
	mem := Event{Kind: KindWrite, TID: 3, Addr: 0x10, Mask: 5}
	if !strings.Contains(mem.String(), "write") {
		t.Errorf("event string %q", mem.String())
	}
	syn := Event{Kind: KindRelease, Op: OpUnlock, TID: 1, Addr: 0x20, Counter: 7, TS: 9}
	if !strings.Contains(syn.String(), "unlock") {
		t.Errorf("event string %q", syn.String())
	}
}

func randomEvent(r *rand.Rand, tid int32) Event {
	e := Event{
		TID:  tid,
		PC:   lir.PC{Func: int32(r.Intn(100)), Index: int32(r.Intn(1000))},
		Addr: uint64(r.Int63()),
	}
	switch r.Intn(5) {
	case 0:
		e.Kind, e.Mask = KindRead, uint32(r.Intn(256))
	case 1:
		e.Kind, e.Mask = KindWrite, uint32(r.Intn(256))
	case 2:
		e.Kind, e.Op = KindAcquire, OpLock
		e.Counter, e.TS = uint8(r.Intn(NumCounters)), uint64(r.Intn(1<<20))+1
	case 3:
		e.Kind, e.Op = KindRelease, OpUnlock
		e.Counter, e.TS = uint8(r.Intn(NumCounters)), uint64(r.Intn(1<<20))+1
	default:
		e.Kind, e.Op = KindAcqRel, OpCas
		e.Counter, e.TS = uint8(r.Intn(NumCounters)), uint64(r.Intn(1<<20))+1
	}
	return e
}

func TestRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int32][]Event{}
	for tid := int32(0); tid < 4; tid++ {
		tw := w.Thread(tid)
		n := 100 + r.Intn(2000)
		for i := 0; i < n; i++ {
			e := randomEvent(r, tid)
			want[tid] = append(want[tid], e)
			if err := tw.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if tw.Count() != uint64(n) {
			t.Errorf("thread %d count = %d, want %d", tid, tw.Count(), n)
		}
	}
	meta := Meta{
		Module: "m", Seed: 7, Threads: 4, MemOps: 123, SyncOps: 45,
		Samplers: []string{"TL-Ad", "Rnd10"}, SampledOps: []uint64{10, 50},
		Primary: "Full",
	}
	if err := w.Close(meta); err != nil {
		t.Fatal(err)
	}

	log, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if log.Meta.Module != "m" || log.Meta.Seed != 7 || log.Meta.Primary != "Full" {
		t.Errorf("meta round trip failed: %+v", log.Meta)
	}
	if log.Meta.LoggedBytes == 0 {
		t.Error("LoggedBytes not recorded")
	}
	for tid, evs := range want {
		got := log.Threads[tid]
		if !reflect.DeepEqual(got, evs) {
			t.Fatalf("thread %d events differ (%d vs %d)", tid, len(got), len(evs))
		}
	}
	if log.NumEvents() == 0 {
		t.Error("NumEvents = 0")
	}
	tids := log.TIDs()
	if !reflect.DeepEqual(tids, []int32{0, 1, 2, 3}) {
		t.Errorf("TIDs = %v", tids)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		r := rand.New(rand.NewSource(seed))
		var buf bytes.Buffer
		w, err := NewWriter(&buf)
		if err != nil {
			return false
		}
		var want []Event
		tw := w.Thread(1)
		for i := 0; i < int(n); i++ {
			e := randomEvent(r, 1)
			want = append(want, e)
			if tw.Append(e) != nil {
				return false
			}
		}
		if w.Close(Meta{}) != nil {
			return false
		}
		log, err := ReadAll(&buf)
		if err != nil {
			return false
		}
		got := log.Threads[1]
		if len(want) == 0 {
			return len(got) == 0
		}
		return reflect.DeepEqual(got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestInterleavedFlushesPreserveThreadOrder(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := w.Thread(0), w.Thread(1)
	var wantA, wantB []Event
	for i := 0; i < 5000; i++ {
		ea := Event{Kind: KindRead, TID: 0, Addr: uint64(i)}
		eb := Event{Kind: KindWrite, TID: 1, Addr: uint64(i)}
		wantA = append(wantA, ea)
		wantB = append(wantB, eb)
		if err := a.Append(ea); err != nil {
			t.Fatal(err)
		}
		if err := b.Append(eb); err != nil {
			t.Fatal(err)
		}
		if i%777 == 0 {
			if err := a.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	log, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(log.Threads[0], wantA) || !reflect.DeepEqual(log.Threads[1], wantB) {
		t.Error("interleaved flushes corrupted per-thread order")
	}
}

func TestDoubleCloseFails(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(Meta{}); err == nil {
		t.Error("second Close should fail")
	}
}

func TestReadErrors(t *testing.T) {
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad magic", []byte("NOPE!\n")},
		{"no meta", []byte(magic)},
		{"truncated chunk", append([]byte(magic), 1, 100)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ReadAll(bytes.NewReader(c.data)); err == nil {
				t.Errorf("ReadAll accepted %s", c.name)
			}
		})
	}
}

func TestCorruptEventRejected(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	tw := w.Thread(0)
	if err := tw.Append(Event{Kind: KindRead, Addr: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip the kind byte of the first event to an invalid value. The first
	// chunk begins right after the magic: tag, len, then the event.
	idx := len(magic) + 2
	data[idx] = 0xEE
	if _, err := ReadAll(bytes.NewReader(data)); err == nil {
		t.Error("corrupt kind byte accepted")
	}
}

func TestMetaHelpers(t *testing.T) {
	m := Meta{
		MemOps:     1000,
		Samplers:   []string{"TL-Ad", "Rnd10"},
		SampledOps: []uint64{18, 99},
	}
	if r := m.EffectiveRate(0); r != 0.018 {
		t.Errorf("EffectiveRate(0) = %v", r)
	}
	if r := m.EffectiveRate(5); r != 0 {
		t.Errorf("EffectiveRate out of range = %v", r)
	}
	if m.SamplerIndex("Rnd10") != 1 || m.SamplerIndex("nope") != -1 {
		t.Error("SamplerIndex broken")
	}
	var zero Meta
	if zero.EffectiveRate(0) != 0 {
		t.Error("zero Meta EffectiveRate should be 0")
	}
}

// TestFlushAtBufferBoundary drives a thread buffer exactly to the flush
// threshold and checks chunks split there without losing or reordering
// events.
func TestFlushAtBufferBoundary(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tw := w.Thread(0)

	// Grow the buffer to just below the threshold, then step over it.
	e := Event{Kind: KindWrite, PC: lir.PC{Func: 1, Index: 2}, Addr: 0x1234, Mask: 0x7F}
	n := 0
	for len(tw.buf) < flushThreshold-len(appendEvent(nil, e)) {
		if err := tw.Append(e); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if got := w.BytesWritten(); got != uint64(len(magic)) {
		t.Fatalf("flushed before threshold: %d bytes", got)
	}
	// Crossing the threshold flushes exactly once, emptying the buffer.
	for i := 0; i < 2; i++ {
		if err := tw.Append(e); err != nil {
			t.Fatal(err)
		}
		n++
	}
	afterCross := w.BytesWritten()
	if afterCross <= uint64(len(magic)) {
		t.Fatal("threshold crossing did not flush")
	}
	if len(tw.buf) == 0 || len(tw.buf) >= flushThreshold {
		t.Fatalf("post-flush buffer length %d", len(tw.buf))
	}

	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	log, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if log.NumEvents() != n {
		t.Fatalf("decoded %d events, appended %d", log.NumEvents(), n)
	}
}

// TestEmptyFlushIsNoop checks Flush on an empty buffer emits nothing: no
// zero-length chunks, no byte growth, no spurious telemetry.
func TestEmptyFlushIsNoop(t *testing.T) {
	reg := obsNew()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.SetObs(reg)
	tw := w.Thread(7)
	for i := 0; i < 3; i++ {
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.BytesWritten(); got != uint64(len(magic)) {
		t.Fatalf("empty flush wrote %d bytes", got)
	}
	snap := reg.Snapshot()
	if snap.Counters["trace.chunks_flushed"] != 0 || snap.Counters["trace.thread_flushes.t7"] != 0 {
		t.Fatalf("empty flush counted: %v", snap.Counters)
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadAll(&buf); err != nil {
		t.Fatalf("log with only a trailer unreadable: %v", err)
	}
}

// TestWriterTelemetry checks the SetObs counters agree with ground truth:
// bytes match BytesWritten, every event is counted, and per-thread flushes
// are attributed to the right thread.
func TestWriterTelemetry(t *testing.T) {
	reg := obsNew()
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	w.SetObs(reg)
	a, b := w.Thread(0), w.Thread(1)
	e := Event{Kind: KindRead, Addr: 9}
	for i := 0; i < 10; i++ {
		if err := a.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Append(e); err != nil {
		t.Fatal(err)
	}
	if err := a.Flush(); err != nil { // explicit mid-run flush
		t.Fatal(err)
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["trace.events_appended"] != 11 {
		t.Errorf("events_appended = %d", snap.Counters["trace.events_appended"])
	}
	if snap.Counters["trace.bytes_written"] != w.BytesWritten() {
		t.Errorf("bytes_written = %d, writer says %d",
			snap.Counters["trace.bytes_written"], w.BytesWritten())
	}
	// Chunks: thread 0's explicit flush, thread 1's close flush, the meta
	// trailer.
	if snap.Counters["trace.chunks_flushed"] != 3 {
		t.Errorf("chunks_flushed = %d", snap.Counters["trace.chunks_flushed"])
	}
	if snap.Counters["trace.thread_flushes.t0"] != 1 || snap.Counters["trace.thread_flushes.t1"] != 1 {
		t.Errorf("per-thread flushes: %v", snap.Counters)
	}
}

func TestBytesWrittenGrows(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	before := w.BytesWritten()
	tw := w.Thread(0)
	for i := 0; i < 10000; i++ {
		if err := tw.Append(Event{Kind: KindRead, Addr: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	if w.BytesWritten() <= before {
		t.Error("BytesWritten did not grow")
	}
	if int(w.BytesWritten()) != buf.Len() {
		t.Errorf("BytesWritten = %d, buffer has %d", w.BytesWritten(), buf.Len())
	}
}

// TestForkFlushesThread checks the flush-after-fork rule: appending a
// fork event leaves the thread's buffer empty, so the fork's chunk
// precedes every chunk of the forked thread in the log's chunk order,
// even when the parent logs on and flushes only at Close.
func TestForkFlushesThread(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	parent := w.Thread(0)
	for i := 0; i < 5; i++ {
		if err := parent.Append(Event{Kind: KindWrite, TID: 0, Addr: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	tv := ThreadVar(1)
	fork := Event{Kind: KindRelease, Op: OpFork, TID: 0, Addr: tv, Counter: CounterOf(tv), TS: 1}
	if err := parent.Append(fork); err != nil {
		t.Fatal(err)
	}
	if len(parent.buf) != 0 {
		t.Fatalf("fork left %d bytes in the parent's buffer", len(parent.buf))
	}
	child := w.Thread(1)
	start := Event{Kind: KindAcquire, Op: OpForkChild, TID: 1, Addr: tv, Counter: CounterOf(tv), TS: 2}
	if err := child.Append(start); err != nil {
		t.Fatal(err)
	}
	if err := child.Flush(); err != nil {
		t.Fatal(err)
	}
	// The parent's later events stay buffered until Close.
	if err := parent.Append(Event{Kind: KindRead, TID: 0, Addr: 99}); err != nil {
		t.Fatal(err)
	}
	if len(parent.buf) == 0 {
		t.Fatal("a read flushed the parent's buffer")
	}
	if err := w.Close(Meta{}); err != nil {
		t.Fatal(err)
	}
	log, err := ReadAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []ChunkRef{{TID: 0, N: 6}, {TID: 1, N: 1}, {TID: 0, N: 1}}
	if !reflect.DeepEqual(log.ChunkOrder, want) {
		t.Fatalf("chunk order %+v, want %+v", log.ChunkOrder, want)
	}
}

// TestFlushAllocatesNothing checks a steady-state thread flush (the
// logging hot path) allocates nothing: the writer frames each chunk in
// buffers it owns.
func TestFlushAllocatesNothing(t *testing.T) {
	w, err := NewWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	tw := w.Thread(3)
	e := Event{Kind: KindWrite, TID: 3, PC: lir.PC{Func: 2, Index: 300}, Addr: 1 << 20, Mask: 1}
	flush := func() {
		for i := 0; i < 4; i++ {
			if err := tw.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := tw.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	flush() // warm the thread buffer
	// 100 chunks of ~50 bytes stay under checkpointInterval, so no
	// checkpoint (JSON, which allocates) is written in between.
	if n := testing.AllocsPerRun(100, flush); n != 0 {
		t.Fatalf("a flush allocated %v times", n)
	}
	if w.BytesWritten()-uint64(len(magic)) >= checkpointInterval {
		t.Fatalf("the runs wrote %d bytes: a checkpoint fell inside them", w.BytesWritten())
	}
}

// TestVarintWidthsRoundTrip round-trips every varint field of an event
// at each width boundary (one to ten bytes), so each of the decoder's
// inline one- and two-byte paths and its out-of-line path is exercised
// on every field.
func TestVarintWidthsRoundTrip(t *testing.T) {
	widths := []uint64{0, 1, 127, 128, 129, 255, 256, 16383, 16384, 1<<21 - 1, 1 << 21, 1<<32 - 1, 1 << 35, 1<<63 + 5}
	var want []Event
	for _, v := range widths {
		pc := int32(uint32(v))
		want = append(want,
			Event{Kind: KindWrite, TID: 3, PC: lir.PC{Func: pc, Index: 1}, Addr: 1, Mask: 1},
			Event{Kind: KindRead, TID: 3, PC: lir.PC{Func: 1, Index: pc}, Addr: 1, Mask: 1},
			Event{Kind: KindWrite, TID: 3, PC: lir.PC{Func: 1, Index: 1}, Addr: v, Mask: uint32(v)},
			Event{Kind: KindAcquire, Op: OpLock, TID: 3, Addr: v, Counter: 5, TS: v},
		)
	}
	var payload []byte
	for _, e := range want {
		payload = appendEvent(payload, e)
	}
	got, n, err := decodeEventsPrefix(nil, 3, payload)
	if err != nil || n != len(payload) {
		t.Fatalf("decode: %d of %d bytes, %v", n, len(payload), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip differs:\n got %+v\nwant %+v", got, want)
	}
}

// TestTwoByteVarintsMatchUvarint decodes every two-byte varint form,
// non-minimal ones included, in the address field and checks the value
// against binary.Uvarint.
func TestTwoByteVarintsMatchUvarint(t *testing.T) {
	for b0 := 0x80; b0 <= 0xff; b0++ {
		for b1 := 0; b1 < 0x80; b1++ {
			payload := []byte{byte(KindRead), 0, 1, 1, byte(b0), byte(b1), 1}
			want, _ := binary.Uvarint(payload[4:6])
			got, n, err := decodeEventsPrefix(nil, 1, payload)
			if err != nil || n != len(payload) || len(got) != 1 || got[0].Addr != want {
				t.Fatalf("%#x %#x: decoded %+v (%d bytes, %v), want address %d", b0, b1, got, n, err, want)
			}
		}
	}
}
