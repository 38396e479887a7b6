package hb

import (
	"math/rand"
	"testing"
	"testing/quick"

	"literace/internal/lir"
	"literace/internal/trace"
)

// logBuilder assembles per-thread event streams with globally consistent
// timestamps, playing the role of the instrumented runtime in tests. Events
// are appended in the intended global order; timestamps are assigned from
// the per-counter sequence exactly as the runtime would.
type logBuilder struct {
	next    [trace.NumCounters]uint64
	threads map[int32][]trace.Event
	pcSeq   int32
}

func newLogBuilder() *logBuilder {
	b := &logBuilder{threads: make(map[int32][]trace.Event)}
	for i := range b.next {
		b.next[i] = 1
	}
	return b
}

func (b *logBuilder) pc() lir.PC {
	b.pcSeq++
	return lir.PC{Func: 0, Index: b.pcSeq}
}

func (b *logBuilder) sync(tid int32, kind trace.Kind, op trace.SyncOp, syncVar uint64) {
	c := trace.CounterOf(syncVar)
	e := trace.Event{
		Kind: kind, Op: op, TID: tid, PC: b.pc(),
		Addr: syncVar, Counter: c, TS: b.next[c],
	}
	b.next[c]++
	b.threads[tid] = append(b.threads[tid], e)
}

func (b *logBuilder) mem(tid int32, kind trace.Kind, addr uint64, mask uint32) lir.PC {
	pc := b.pc()
	b.threads[tid] = append(b.threads[tid], trace.Event{
		Kind: kind, TID: tid, PC: pc, Addr: addr, Mask: mask,
	})
	return pc
}

func (b *logBuilder) log() *trace.Log {
	return &trace.Log{Threads: b.threads}
}

func detect(t *testing.T, l *trace.Log) *Result {
	t.Helper()
	res, err := Detect(l, Options{SamplerBit: AllEvents})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

const (
	lockVar = uint64(0x100)
	x       = uint64(0x200)
)

// TestProperlySynchronizedNoRace reproduces the left half of the paper's
// Figure 1: two writes ordered by unlock -> lock do not race.
func TestProperlySynchronizedNoRace(t *testing.T) {
	b := newLogBuilder()
	b.sync(1, trace.KindAcquire, trace.OpLock, lockVar)
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	b.sync(1, trace.KindRelease, trace.OpUnlock, lockVar)
	b.sync(2, trace.KindAcquire, trace.OpLock, lockVar)
	b.mem(2, trace.KindWrite, x, 0xFFFF)
	b.sync(2, trace.KindRelease, trace.OpUnlock, lockVar)
	res := detect(t, b.log())
	if res.NumRaces != 0 {
		t.Errorf("reported %d races on properly synchronized writes: %v", res.NumRaces, res.Races)
	}
	if res.MemOps != 2 || res.SyncOps != 4 {
		t.Errorf("counts: mem=%d sync=%d", res.MemOps, res.SyncOps)
	}
}

// TestUnsynchronizedWritesRace reproduces the right half of Figure 1.
func TestUnsynchronizedWritesRace(t *testing.T) {
	b := newLogBuilder()
	pc1 := b.mem(1, trace.KindWrite, x, 0xFFFF)
	// Thread 2 takes an unrelated lock; still no ordering with thread 1.
	b.sync(2, trace.KindAcquire, trace.OpLock, lockVar)
	pc2 := b.mem(2, trace.KindWrite, x, 0xFFFF)
	b.sync(2, trace.KindRelease, trace.OpUnlock, lockVar)
	res := detect(t, b.log())
	if res.NumRaces != 1 {
		t.Fatalf("races = %d, want 1", res.NumRaces)
	}
	r := res.Races[0]
	if r.PrevPC != pc1 || r.CurPC != pc2 || !r.PrevWrite || !r.CurWrite {
		t.Errorf("race = %+v", r)
	}
	if r.Addr != x {
		t.Errorf("race addr = %#x", r.Addr)
	}
}

// TestMissingSyncCausesFalsePositive demonstrates the Figure 2 rationale:
// if the release/acquire edge is NOT logged the detector reports a false
// race — which is exactly why LiteRace always logs every sync operation.
func TestMissingSyncCausesFalsePositive(t *testing.T) {
	b := newLogBuilder()
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	// unlock/lock edge intentionally omitted
	b.mem(2, trace.KindWrite, x, 0xFFFF)
	res := detect(t, b.log())
	if res.NumRaces != 1 {
		t.Errorf("expected the (false) race to be reported, got %d", res.NumRaces)
	}
}

func TestForkJoinOrdering(t *testing.T) {
	b := newLogBuilder()
	child := int32(2)
	tv := trace.ThreadVar(child)
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	b.sync(1, trace.KindRelease, trace.OpFork, tv)
	b.sync(child, trace.KindAcquire, trace.OpForkChild, tv)
	b.mem(child, trace.KindWrite, x, 0xFFFF)
	b.sync(child, trace.KindRelease, trace.OpThreadEnd, tv)
	b.sync(1, trace.KindAcquire, trace.OpJoin, tv)
	b.mem(1, trace.KindRead, x, 0xFFFF)
	res := detect(t, b.log())
	if res.NumRaces != 0 {
		t.Errorf("fork/join ordered accesses raced: %v", res.Races)
	}
}

func TestWaitNotifyOrdering(t *testing.T) {
	ev := uint64(0x300)
	b := newLogBuilder()
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	b.sync(1, trace.KindRelease, trace.OpNotify, ev)
	b.sync(2, trace.KindAcquire, trace.OpWait, ev)
	b.mem(2, trace.KindRead, x, 0xFFFF)
	if res := detect(t, b.log()); res.NumRaces != 0 {
		t.Errorf("notify->wait ordered accesses raced: %v", res.Races)
	}
}

func TestCasOrdering(t *testing.T) {
	flag := uint64(0x400)
	b := newLogBuilder()
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	b.sync(1, trace.KindAcqRel, trace.OpCas, flag)
	b.sync(2, trace.KindAcqRel, trace.OpCas, flag)
	b.mem(2, trace.KindWrite, x, 0xFFFF)
	if res := detect(t, b.log()); res.NumRaces != 0 {
		t.Errorf("CAS-ordered accesses raced: %v", res.Races)
	}
}

func TestReadReadNoRace(t *testing.T) {
	b := newLogBuilder()
	b.mem(1, trace.KindRead, x, 0xFFFF)
	b.mem(2, trace.KindRead, x, 0xFFFF)
	if res := detect(t, b.log()); res.NumRaces != 0 {
		t.Errorf("read/read raced: %v", res.Races)
	}
}

func TestReadWriteRaces(t *testing.T) {
	// write-then-read race.
	b := newLogBuilder()
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	b.mem(2, trace.KindRead, x, 0xFFFF)
	res := detect(t, b.log())
	if res.NumRaces != 1 || res.Races[0].CurWrite {
		t.Errorf("write->read: %+v", res.Races)
	}

	// read-then-write race.
	b = newLogBuilder()
	b.mem(1, trace.KindRead, x, 0xFFFF)
	b.mem(2, trace.KindWrite, x, 0xFFFF)
	res = detect(t, b.log())
	if res.NumRaces != 1 || res.Races[0].PrevWrite || !res.Races[0].CurWrite {
		t.Errorf("read->write: %+v", res.Races)
	}
}

func TestMultipleRacingReadsAllReported(t *testing.T) {
	b := newLogBuilder()
	b.mem(1, trace.KindRead, x, 0xFFFF)
	b.mem(2, trace.KindRead, x, 0xFFFF)
	b.mem(3, trace.KindWrite, x, 0xFFFF)
	res := detect(t, b.log())
	if res.NumRaces != 2 {
		t.Errorf("races = %d, want 2 (one per racing read)", res.NumRaces)
	}
}

func TestSameThreadNeverRaces(t *testing.T) {
	b := newLogBuilder()
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	b.mem(1, trace.KindRead, x, 0xFFFF)
	if res := detect(t, b.log()); res.NumRaces != 0 {
		t.Errorf("same-thread accesses raced: %v", res.Races)
	}
}

func TestDifferentAddressesNoRace(t *testing.T) {
	b := newLogBuilder()
	b.mem(1, trace.KindWrite, 0x500, 0xFFFF)
	b.mem(2, trace.KindWrite, 0x501, 0xFFFF)
	if res := detect(t, b.log()); res.NumRaces != 0 {
		t.Errorf("different addresses raced: %v", res.Races)
	}
}

func TestAllocationSyncSuppressesReuseRace(t *testing.T) {
	// §4.3: thread 1 frees memory, thread 2 reallocates the same page and
	// writes. The alloc/free page synchronization orders the accesses.
	addr := uint64(3 * lir.PageWords)
	pv := trace.PageVar(lir.PageOf(addr))
	b := newLogBuilder()
	b.mem(1, trace.KindWrite, addr, 0xFFFF)
	b.sync(1, trace.KindAcqRel, trace.OpFree, pv)
	b.sync(2, trace.KindAcqRel, trace.OpAlloc, pv)
	b.mem(2, trace.KindWrite, addr, 0xFFFF)
	if res := detect(t, b.log()); res.NumRaces != 0 {
		t.Errorf("reallocation race not suppressed: %v", res.Races)
	}
}

func TestSamplerMaskFiltering(t *testing.T) {
	// Bit 0 sampler saw both accesses; bit 1 sampler missed the first.
	b := newLogBuilder()
	b.mem(1, trace.KindWrite, x, 0b01)
	b.mem(2, trace.KindWrite, x, 0b11)
	l := b.log()

	res, err := Detect(l, Options{SamplerBit: 0})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRaces != 1 {
		t.Errorf("sampler 0 races = %d, want 1", res.NumRaces)
	}
	res, err = Detect(l, Options{SamplerBit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRaces != 0 {
		t.Errorf("sampler 1 races = %d, want 0 (missed access)", res.NumRaces)
	}
	if res.MemOps != 1 {
		t.Errorf("sampler 1 analyzed %d mem ops, want 1", res.MemOps)
	}
}

func TestKeepMaxAndCallback(t *testing.T) {
	b := newLogBuilder()
	for i := 0; i < 10; i++ {
		b.mem(1, trace.KindWrite, x+uint64(i), 0xFFFF)
		b.mem(2, trace.KindWrite, x+uint64(i), 0xFFFF)
	}
	var cbCount int
	res, err := Detect(b.log(), Options{
		SamplerBit: AllEvents,
		KeepMax:    3,
		OnRace:     func(DynamicRace) { cbCount++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Races) != 3 {
		t.Errorf("kept %d races, want 3", len(res.Races))
	}
	if res.NumRaces < 10 {
		t.Errorf("NumRaces = %d, want >= 10", res.NumRaces)
	}
	if uint64(cbCount) != res.NumRaces {
		t.Errorf("callback count %d != NumRaces %d", cbCount, res.NumRaces)
	}
}

// TestReplayReordersByTimestamp builds a log whose round-robin order would
// process an acquire before its matching release; replay must recover the
// timestamp order.
func TestReplayReordersByTimestamp(t *testing.T) {
	b := newLogBuilder()
	// Emit in true order: t2 releases first, then t1 acquires.
	b.mem(2, trace.KindWrite, x, 0xFFFF)
	b.sync(2, trace.KindRelease, trace.OpUnlock, lockVar)
	b.sync(1, trace.KindAcquire, trace.OpLock, lockVar)
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	// Thread 1 sorts before thread 2 in TIDs(), so a naive in-order merge
	// would hit t1's acquire (ts=2) first and must wait.
	var order []int32
	err := Replay(b.log(), func(e trace.Event) error {
		order = append(order, e.TID)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 4 || order[0] != 2 || order[1] != 2 {
		t.Errorf("replay order = %v, want thread 2 first", order)
	}
	if res := detect(t, b.log()); res.NumRaces != 0 {
		t.Errorf("release/acquire ordering lost in replay: %v", res.Races)
	}
}

func TestReplayDetectsCorruptLog(t *testing.T) {
	b := newLogBuilder()
	b.sync(1, trace.KindRelease, trace.OpUnlock, lockVar)
	// Manually corrupt: a timestamp that can never become ready.
	evs := b.threads[1]
	evs[0].TS = 99
	l := &trace.Log{Threads: map[int32][]trace.Event{1: evs}}
	if err := Replay(l, func(trace.Event) error { return nil }); err == nil {
		t.Error("corrupt log replayed without error")
	}

	l2 := &trace.Log{Threads: map[int32][]trace.Event{
		1: {{Kind: trace.KindRelease, TID: 1, Counter: 200, TS: 1}},
	}}
	if err := Replay(l2, func(trace.Event) error { return nil }); err == nil {
		t.Error("bad counter accepted")
	}
}

// TestProperLockingNeverRacesQuick is the core soundness property: any
// interleaving of threads that all guard their accesses with the same lock
// produces no race reports.
func TestProperLockingNeverRacesQuick(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := newLogBuilder()
		nthreads := 2 + r.Intn(4)
		iters := 1 + r.Intn(20)
		for i := 0; i < nthreads*iters; i++ {
			tid := int32(1 + r.Intn(nthreads))
			b.sync(tid, trace.KindAcquire, trace.OpLock, lockVar)
			if r.Intn(2) == 0 {
				b.mem(tid, trace.KindRead, x, 0xFFFF)
			}
			b.mem(tid, trace.KindWrite, x, 0xFFFF)
			b.sync(tid, trace.KindRelease, trace.OpUnlock, lockVar)
		}
		res, err := Detect(b.log(), Options{SamplerBit: AllEvents})
		return err == nil && res.NumRaces == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestVCLaws(t *testing.T) {
	// Join is an upper bound, LEq is reflexive and respects Join.
	f := func(a, b []uint16) bool {
		var u, v VC
		for i, c := range a {
			u = u.Set(int32(i), uint64(c))
		}
		for i, c := range b {
			v = v.Set(int32(i), uint64(c))
		}
		j := u.Clone().Join(v)
		return u.LEq(j) && v.LEq(j) && u.LEq(u) && v.LEq(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVCBasics(t *testing.T) {
	var v VC
	if v.At(5) != 0 {
		t.Error("empty VC should read 0")
	}
	v = v.Set(3, 7)
	if v.At(3) != 7 || v.At(0) != 0 {
		t.Error("Set/At broken")
	}
	v = v.Tick(3)
	if v.At(3) != 8 {
		t.Error("Tick broken")
	}
	v = v.Tick(10)
	if v.At(10) != 1 {
		t.Error("Tick on new index broken")
	}
	c := v.Clone()
	c = c.Set(3, 0)
	if v.At(3) != 8 {
		t.Error("Clone shares storage")
	}
}
