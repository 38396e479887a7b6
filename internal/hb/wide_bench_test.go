package hb

import (
	"math/rand"
	"testing"

	"literace/internal/trace"
)

// wideLog is a log of the benchmark's many-threads shape: thread 0
// forks every worker, each worker's first event waits on its fork, the
// workers interleave private accesses with lock steps on their group's
// lock, and thread 0 joins them all.
type wideLog struct {
	order  []trace.Event // the legal global order the log was built in
	chunks []mergeChunk  // the streams in the chunk order of the log file
}

// genWideLog builds a wideLog of threads threads (thread 0 included)
// whose workers log about events events, syncPct percent of them lock
// operations, over groups locks. The chunks arrive as the trace writer
// emits them when no worker fills its buffer: one chunk per fork (the
// writer flushes after each), then at close thread 0's joins and every
// worker's whole stream, in tid order.
func genWideLog(threads, events, syncPct, groups int, seed int64) wideLog {
	r := rand.New(rand.NewSource(seed))
	var w wideLog
	var next [trace.NumCounters]uint64
	for i := range next {
		next[i] = 1
	}
	streams := make([][]trace.Event, threads)
	emit := func(tid int, kind trace.Kind, op trace.SyncOp, addr uint64) {
		e := trace.Event{Kind: kind, Op: op, TID: int32(tid), Addr: addr, Mask: 1, PC: lirPC(len(w.order))}
		if kind.IsSync() {
			e.Mask, e.Counter = 0, trace.CounterOf(addr)
			e.TS = next[e.Counter]
			next[e.Counter]++
		}
		w.order = append(w.order, e)
		streams[tid] = append(streams[tid], e)
	}
	for tid := 1; tid < threads; tid++ {
		emit(0, trace.KindRelease, trace.OpFork, trace.ThreadVar(int32(tid)))
		w.chunks = append(w.chunks, mergeChunk{tid: 0, evs: streams[0][tid-1 : tid], suspectFrom: 1})
	}
	forks := len(streams[0])
	// A lock step logs 2 lock and 2 memory events, a private step one
	// memory event; p makes lock events syncPct percent of the total.
	s := float64(syncPct) / 100
	p := s / (2 - 3*s)
	budget := make([]int, threads)
	var active []int
	for tid := 1; tid < threads; tid++ {
		emit(tid, trace.KindAcquire, trace.OpForkChild, trace.ThreadVar(int32(tid)))
		budget[tid] = events / (threads - 1)
		active = append(active, tid)
	}
	for len(active) > 0 {
		k := r.Intn(len(active))
		tid := active[k]
		if r.Float64() < p {
			g := uint64(tid % groups)
			emit(tid, trace.KindAcquire, trace.OpLock, 0x4000_0000+g)
			emit(tid, trace.KindRead, 0, 0x100_0000+g)
			emit(tid, trace.KindWrite, 0, 0x100_0000+g)
			emit(tid, trace.KindRelease, trace.OpUnlock, 0x4000_0000+g)
			budget[tid] -= 4
		} else {
			emit(tid, trace.KindRead, 0, 0x10_0000+uint64(tid)*32+uint64(r.Intn(32)))
			budget[tid]--
		}
		if budget[tid] <= 0 {
			emit(tid, trace.KindRelease, trace.OpThreadEnd, trace.ThreadVar(int32(tid)))
			active[k] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	for tid := 1; tid < threads; tid++ {
		emit(0, trace.KindAcquire, trace.OpJoin, trace.ThreadVar(int32(tid)))
	}
	w.chunks = append(w.chunks, mergeChunk{tid: 0, evs: streams[0][forks:], suspectFrom: len(streams[0]) - forks})
	for tid := 1; tid < threads; tid++ {
		w.chunks = append(w.chunks, mergeChunk{tid: int32(tid), evs: streams[tid], suspectFrom: len(streams[tid])})
	}
	return w
}

// manyThreadsLog is the benchmark's many-threads shape at full size.
func manyThreadsLog() wideLog { return genWideLog(256, 300000, 10, 64, 1) }

// BenchmarkMergeWide merges the many-threads log: 256 queues, most of
// whose heads wait on a fork or a lock release of another queue.
func BenchmarkMergeWide(b *testing.B) {
	w := manyThreadsLog()
	consume := func(run []trace.Event) (int, error) { return len(run), nil }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewMerger(MergerOptions{})
		for _, ch := range w.chunks {
			if err := m.Add(ch.tid, ch.evs, ch.suspectFrom); err != nil {
				b.Fatal(err)
			}
			if err := m.Pump(consume); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.Finish(consume); err != nil {
			b.Fatal(err)
		}
		if m.Delivered() != uint64(len(w.order)) {
			b.Fatalf("delivered %d of %d events", m.Delivered(), len(w.order))
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(w.order)), "ns/event")
}

// BenchmarkClockSyncWide applies the many-threads log's sync events to
// a fresh clock engine: 256 thread clocks, each fork edge and lock
// handoff a join.
func BenchmarkClockSyncWide(b *testing.B) {
	w := manyThreadsLog()
	var syncs []trace.Event
	for _, e := range w.order {
		if e.Kind.IsSync() {
			syncs = append(syncs, e)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := newClockEngine(Options{SamplerBit: AllEvents})
		for j := range syncs {
			c.Sync(&syncs[j])
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(syncs)), "ns/sync")
}
