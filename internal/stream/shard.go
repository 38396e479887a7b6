package stream

import (
	"sync/atomic"
	"time"

	"literace/internal/hb"
	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/obs/diag"
	"literace/internal/shadow"
)

// memAccess is one sampled memory event as dispatched to a shard: the
// decoded event fields it needs, the immutable snapshot of its thread's
// vector clock at access time, and the ordinals that make the sharded
// results mergeable back into replay order.
type memAccess struct {
	ord   uint64 // global dispatch ordinal (replay order of analyzed mem events)
	seq   uint64 // per-thread analyzed-memory ordinal (hb.DynamicRace.*Seq)
	addr  uint64
	tid   int32
	write bool
	pc    lir.PC
	vc    hb.VC              // immutable; shared across dispatches until the thread's clock changes
	ev    *hb.AccessEvidence // forensic snapshot; nil unless Options.Evidence
}

// shardRace is a race found by a shard, tagged with the ordinal of the
// access that triggered it and its index among the races that access
// produced, so the global merge can restore exact replay-order reporting.
type shardRace struct {
	r   hb.DynamicRace
	ord uint64
	sub int
}

// shard is one detection worker: it owns the shadow memory of the
// addresses hashed to it and processes their events strictly in dispatch
// order, so its view of each address is identical to a batch detector's.
type shard struct {
	idx        int
	ch         chan []memAccess
	eng        *shadow.Engine
	races      []shardRace
	events     uint64
	degradeOrd *atomic.Uint64
	onRace     func(hb.DynamicRace) // serialized by the pipeline; may be nil
	near       *hb.NearAccum        // near-miss accumulator; nil when disabled
	evCnt      *obs.Counter         // stream.shard_events.<idx>
	rec        *diag.Recorder       // flight recorder; may be nil

	// curOrd carries the dispatch ordinal of the access under analysis
	// into the race callback.
	curOrd uint64
}

func (s *shard) run(done chan<- struct{}) {
	for batch := range s.ch {
		var t0 time.Time
		if s.rec != nil {
			t0 = time.Now()
		}
		for i := range batch {
			s.access(&batch[i])
		}
		s.events += uint64(len(batch))
		s.evCnt.Add(uint64(len(batch)))
		if s.rec != nil {
			s.rec.Span(diag.StageShardDetect, int32(s.idx), t0, time.Since(t0),
				batch[len(batch)-1].ord, uint64(len(batch)))
		}
	}
	done <- struct{}{}
}

// access hands one access to the shard's engine, exactly as
// hb.Detector does in a batch pass.
func (s *shard) access(a *memAccess) {
	s.curOrd = a.ord
	switch {
	case a.ev != nil:
		s.eng.Access(&shadow.Access{
			Addr: a.addr, Seq: a.seq, TID: a.tid, Write: a.write, PC: a.pc, VC: a.vc, Ev: a.ev,
		})
	case a.write:
		s.eng.Write(a.addr, a.seq, a.tid, a.pc, a.vc)
	default:
		s.eng.Read(a.addr, a.seq, a.tid, a.pc, a.vc)
	}
}

// report records a race the access at curOrd produced; sub is its index
// among that access's races.
func (s *shard) report(r hb.DynamicRace, sub int) {
	if s.curOrd >= s.degradeOrd.Load() {
		r.Unconfirmed = true
	}
	s.races = append(s.races, shardRace{r: r, ord: s.curOrd, sub: sub})
	if s.onRace != nil {
		s.onRace(r)
	}
}
