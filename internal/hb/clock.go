package hb

import (
	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/trace"
)

// clockEngine is the synchronization half of Detector: per-thread
// vector clocks, the clock each sync var published at its last release,
// the last-release record behind Options.OnEdge, and each thread's
// evidence state. It also applies the SamplerBit filter and counts the
// events it sees. The memory-access half is shadow.Engine.
type clockEngine struct {
	threads  []*threadClock          // indexed by tid
	vars     map[uint64]*sparseClock // sync var -> clock published by its releases
	lastRel  map[uint64]relInfo
	onEdge   func(Edge)
	evidence bool
	bit      int

	// MemOps and SyncOps count the memory events that passed the
	// SamplerBit filter and the sync events applied.
	MemOps  uint64
	SyncOps uint64

	obsJoins *obs.Counter // hb.vc_joins
	obsMem   *obs.Counter // hb.mem_events
	obsSync  *obs.Counter // hb.sync_events
}

// sparseClock is a vector clock kept twice: dense in VC, which readers
// index in O(1), and as nz, the indices of its nonzero entries. A join
// walks only the source's nz, so with hundreds of threads that each
// hear from a few others it costs what the source knows, not the
// thread count.
type sparseClock struct {
	VC VC
	nz []int32
}

// join sets v to v ⊔ u.
func (v *sparseClock) join(u *sparseClock) {
	if len(u.VC) > len(v.VC) {
		v.VC = v.VC.ensure(int32(len(u.VC) - 1))
	}
	for _, i := range u.nz {
		if c := u.VC[i]; c > v.VC[i] {
			if v.VC[i] == 0 {
				v.nz = append(v.nz, i)
			}
			v.VC[i] = c
		}
	}
}

// threadClock is one thread's view in the clock engine.
type threadClock struct {
	// sparseClock holds the live clock, VC. Sync events mutate it in
	// place, so a caller that keeps a clock past the next sync event
	// takes Snapshot instead.
	sparseClock
	// MemSeq counts this thread's analyzed memory events (1-based after
	// the first access); see DynamicRace.PrevSeq.
	MemSeq uint64

	// pub is the immutable copy of VC that accesses share until a sync
	// event changes VC (dirty); ev is the evidence state.
	pub   VC
	dirty bool
	ev    EvidenceState
}

// relInfo remembers the last release on a sync var so a later acquire
// can be reported as a happens-before edge.
type relInfo struct {
	tid     int32
	pc      lir.PC
	counter uint8
	ts      uint64
}

// newClockEngine returns a clock engine honoring opts.SamplerBit,
// opts.OnEdge, opts.Evidence and opts.Obs.
func newClockEngine(opts Options) *clockEngine {
	c := &clockEngine{
		vars:     make(map[uint64]*sparseClock),
		onEdge:   opts.OnEdge,
		evidence: opts.Evidence,
		bit:      opts.SamplerBit,
	}
	if opts.OnEdge != nil {
		c.lastRel = make(map[uint64]relInfo)
	}
	if opts.Obs != nil {
		c.obsJoins = opts.Obs.Counter("hb.vc_joins")
		c.obsMem = opts.Obs.Counter("hb.mem_events")
		c.obsSync = opts.Obs.Counter("hb.sync_events")
	}
	return c
}

// Thread returns tid's clock state, creating it on first use.
func (c *clockEngine) Thread(tid int32) *threadClock {
	if int(tid) < len(c.threads) && c.threads[tid] != nil {
		return c.threads[tid]
	}
	return c.newThread(tid)
}

// newThread is Thread's cold path, kept out of line so Thread inlines.
//
//go:noinline
func (c *clockEngine) newThread(tid int32) *threadClock {
	for int(tid) >= len(c.threads) {
		c.threads = append(c.threads, nil)
	}
	// A fresh thread starts at clock 1 so its epoch (tid, 1) is not
	// vacuously happens-before everything.
	t := &threadClock{sparseClock: sparseClock{VC: VC{}.Set(tid, 1), nz: []int32{tid}}}
	c.threads[tid] = t
	return t
}

// Sync applies one acquire, release or acq-rel event: an acquire joins
// the sync var's published clock into the thread's, a release publishes
// the thread's clock into the var and ticks the thread, an acq-rel does
// both in that order.
func (c *clockEngine) Sync(e *trace.Event) {
	c.SyncOps++
	c.obsSync.Inc()
	t := c.Thread(e.TID)
	if e.Kind != trace.KindRelease {
		if lv := c.vars[e.Addr]; lv != nil {
			t.join(lv)
			t.dirty = true
			c.obsJoins.Inc()
			c.emitEdge(e)
		}
	}
	if e.Kind != trace.KindAcquire {
		lv := c.vars[e.Addr]
		if lv == nil {
			lv = &sparseClock{}
			c.vars[e.Addr] = lv
		}
		lv.join(&t.sparseClock)
		c.obsJoins.Inc()
		t.VC = t.VC.Tick(e.TID)
		t.dirty = true
		if c.lastRel != nil {
			c.lastRel[e.Addr] = relInfo{tid: e.TID, pc: e.PC, counter: e.Counter, ts: e.TS}
		}
	}
	if c.evidence {
		t.ev.OnSync(*e)
	}
}

// emitEdge reports the happens-before edge from the last recorded
// release on e.Addr to the acquiring event e, if the release came from
// a different thread. No-op unless OnEdge is set.
func (c *clockEngine) emitEdge(e *trace.Event) {
	if c.lastRel == nil {
		return
	}
	rel, ok := c.lastRel[e.Addr]
	if !ok || rel.tid == e.TID {
		return
	}
	c.onEdge(Edge{
		Var:     e.Addr,
		Counter: rel.counter,
		TS:      rel.ts,
		FromTID: rel.tid,
		ToTID:   e.TID,
		FromPC:  rel.pc,
		ToPC:    e.PC,
	})
}

// Access admits one memory event: it returns nil when the SamplerBit
// filter drops the event, and otherwise counts it and returns the
// accessing thread with MemSeq advanced to this access.
func (c *clockEngine) Access(e *trace.Event) *threadClock {
	if c.bit >= 0 && e.Mask&(1<<uint(c.bit)) == 0 {
		return nil
	}
	c.MemOps++
	c.obsMem.Inc()
	t := c.Thread(e.TID)
	t.MemSeq++
	return t
}

// Snapshot returns an immutable copy of the thread's clock. The copy is
// taken afresh only after a sync event changed the clock (clone on
// write), so the accesses between two sync events share one.
func (t *threadClock) Snapshot() VC {
	if t.dirty || t.pub == nil {
		t.pub = t.VC.Clone()
		t.dirty = false
	}
	return t.pub
}

// Evidence captures the forensic snapshot of an access the thread makes
// now. Meaningful only when the engine runs with Options.Evidence.
func (t *threadClock) Evidence() *AccessEvidence { return t.ev.Snapshot(t.Snapshot()) }
