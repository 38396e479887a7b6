package shadow

import (
	"literace/internal/lir"
	"literace/internal/obs"
)

// Engine is the epoch fast-path detector core for one stream of
// accesses delivered in analysis order. It is not safe for concurrent
// use.
type Engine struct {
	tab  table
	opts Options

	accesses uint64
	fast     uint64
	prom     uint64

	// keepEv is set the first time a caller attaches a non-nil evidence
	// payload to an inline epoch. Until then (all plain detection runs)
	// the out-of-line evidence map is never touched. evIn stashes the
	// payload Access carries so the plain Write/Read entry points stay
	// under the register-argument budget — an interface parameter would
	// push the hot calls onto the stack.
	keepEv bool
	evIn   any

	cFast *obs.Counter // epoch.fastpath_hits; nil-safe
	cProm *obs.Counter // epoch.promotions; nil-safe

	// scr is the report-shaped view of the access under analysis; a
	// field rather than a local so handing &scr to the OnRace callback
	// (an indirect call the escape analysis must assume keeps it) does
	// not allocate per race.
	scr Access
}

// NewEngine returns an engine with the given options.
func NewEngine(opts Options) *Engine {
	e := &Engine{opts: opts}
	var cEvict *obs.Counter
	if opts.Obs != nil {
		e.cFast = opts.Obs.Counter("epoch.fastpath_hits")
		e.cProm = opts.Obs.Counter("epoch.promotions")
		cEvict = opts.Obs.Counter("shadow.evictions")
	}
	e.tab = newTable(opts.MaxCells, cEvict)
	return e
}

// Stats snapshots the engine counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Accesses:     e.accesses,
		FastpathHits: e.fast,
		Promotions:   e.prom,
		Evictions:    e.tab.evictions,
		Cells:        e.tab.live,
	}
}

// Access analyzes one sampled memory access; it is the struct-shaped
// form of Write/Read, and the one that carries an evidence payload.
// Callers running plain detection should call Write/Read directly — the
// extra interface field is the difference between a register call and
// a stack spill per access. Race reports come out in the exact order
// the reference detector produces them: the stored write is checked
// first (for reads and writes alike), then — on a write — every
// recorded read in first-read order; the cell state is updated
// afterwards regardless of the outcome.
func (e *Engine) Access(a *Access) {
	if a.Ev != nil {
		e.keepEv = true
	}
	e.evIn = a.Ev
	if a.Write {
		e.Write(a.Addr, a.Seq, a.TID, a.PC, a.VC)
	} else {
		e.Read(a.Addr, a.Seq, a.TID, a.PC, a.VC)
	}
	e.evIn = nil
}

// Write analyzes one sampled write. The scalar signature keeps the
// per-access hop from the detector in registers; the fast path — a
// fresh cell, a repeat write, or a write over this thread's own read —
// runs with zero cross-thread comparisons and one data cache line.
func (e *Engine) Write(addr, seq uint64, tid int32, pc lir.PC, vc []uint64) {
	e.accesses++
	t := &e.tab
	i := t.find(addr)
	if i < 0 {
		i = t.cell(addr)
	}
	f := t.flags[i]
	d := &t.data[i]
	if f&cellMulti == 0 &&
		(f&cellWrite == 0 || d.w.tid == tid) &&
		(f&cellRead == 0 || d.r.tid == tid) {
		d.w.clk = clockAt(vc, tid)
		d.w.seq = seq
		d.w.pc = pc
		d.w.tid = tid
		if f&cellRead != 0 {
			d.r = rec{}
		}
		t.flags[i] = cellUsed | cellWrite
		if e.keepEv {
			e.setWEv(addr, e.evIn)
		}
		e.fast++
		e.cFast.Inc()
		return
	}
	e.writeSlow(i, addr, seq, tid, pc, vc)
}

// Read analyzes one sampled read. Fast cases — no conflicting write
// recorded, and this thread is the first or only reader — update the
// inline read epoch in place; everything else (cross-thread write
// check, promotion, read-share scan) takes the slow path.
func (e *Engine) Read(addr, seq uint64, tid int32, pc lir.PC, vc []uint64) {
	e.accesses++
	t := &e.tab
	i := t.find(addr)
	if i < 0 {
		i = t.cell(addr)
	}
	f := t.flags[i]
	d := &t.data[i]
	if f&cellMulti == 0 && (f&cellWrite == 0 || d.w.tid == tid) {
		if f&cellRead == 0 {
			d.r = rec{clk: clockAt(vc, tid), seq: seq, pc: pc, tid: tid}
			t.flags[i] = f | cellRead
			if e.keepEv {
				e.setREv(addr, e.evIn)
			}
			e.fast++
			e.cFast.Inc()
			return
		}
		if d.r.tid == tid {
			d.r = rec{clk: clockAt(vc, tid), seq: seq, pc: pc, tid: tid}
			if e.keepEv {
				e.setREv(addr, e.evIn)
			}
			e.fast++
			e.cFast.Inc()
			return
		}
	}
	e.readSlow(i, addr, seq, tid, pc, vc)
}

func (e *Engine) writeSlow(i int, addr, seq uint64, tid int32, pc lir.PC, vc []uint64) {
	t := &e.tab
	f := t.flags[i]
	d := &t.data[i]
	clk := clockAt(vc, tid)
	// The report-shaped view of this access is only materialized if a
	// race actually fires; most slow-path writes are merely unordered
	// checks that come back clean.
	made := false
	cur := func() *Access {
		if !made {
			e.scr = Access{Addr: addr, Seq: seq, TID: tid, Write: true, PC: pc, VC: vc, Ev: e.evIn}
			made = true
		}
		return &e.scr
	}
	var wEv, rEv any
	if e.keepEv {
		wEv, rEv = e.getEv(addr)
	}

	fast := true
	if f&cellWrite != 0 && d.w.tid != tid {
		fast = false
		if d.w.clk > clockAt(vc, d.w.tid) {
			e.report(&d.w, wEv, true, cur())
		} else if e.opts.OnOrdered != nil {
			e.opts.OnOrdered(d.w.pc, pc, clockAt(vc, d.w.tid)-d.w.clk)
		}
	}

	if f&cellMulti != 0 {
		rs := t.rs(i)
		for k := range rs {
			r := &rs[k]
			if r.tid == tid {
				continue
			}
			fast = false
			if r.clk > clockAt(vc, r.tid) {
				e.report(&r.rec, r.ev, false, cur())
			} else if e.opts.OnOrdered != nil {
				e.opts.OnOrdered(r.pc, pc, clockAt(vc, r.tid)-r.clk)
			}
		}
	} else if f&cellRead != 0 && d.r.tid != tid {
		fast = false
		if d.r.clk > clockAt(vc, d.r.tid) {
			e.report(&d.r, rEv, false, cur())
		} else if e.opts.OnOrdered != nil {
			e.opts.OnOrdered(d.r.pc, pc, clockAt(vc, d.r.tid)-d.r.clk)
		}
	}
	if fast {
		e.fast++
		e.cFast.Inc()
	}

	// The write supersedes all recorded reads (the reference detector
	// clears its read list here even after races).
	if f&cellMulti != 0 {
		t.demote(i)
	}
	d.w = rec{clk: clk, seq: seq, pc: pc, tid: tid}
	d.r = rec{}
	t.flags[i] = cellUsed | cellWrite
	if e.keepEv {
		e.setWEv(addr, e.evIn)
	}
}

func (e *Engine) readSlow(i int, addr, seq uint64, tid int32, pc lir.PC, vc []uint64) {
	t := &e.tab
	f := t.flags[i]
	d := &t.data[i]

	fast := true
	if f&cellWrite != 0 && d.w.tid != tid {
		fast = false
		if d.w.clk > clockAt(vc, d.w.tid) {
			var wEv any
			if e.keepEv {
				wEv, _ = e.getEv(addr)
			}
			e.scr = Access{Addr: addr, Seq: seq, TID: tid, PC: pc, VC: vc, Ev: e.evIn}
			e.report(&d.w, wEv, true, &e.scr)
		} else if e.opts.OnOrdered != nil {
			e.opts.OnOrdered(d.w.pc, pc, clockAt(vc, d.w.tid)-d.w.clk)
		}
	}

	now := rec{clk: clockAt(vc, tid), seq: seq, pc: pc, tid: tid}
	switch {
	case f&(cellRead|cellMulti) == 0:
		// First read since the last write: inline, no allocation.
		d.r = now
		t.flags[i] = f | cellRead
		if e.keepEv {
			e.setREv(addr, e.evIn)
		}
	case f&cellMulti == 0:
		if d.r.tid == tid {
			// Same-epoch read: the newer read dominates in place.
			d.r = now
			if e.keepEv {
				e.setREv(addr, e.evIn)
			}
		} else {
			// A second thread reads concurrently: promote the inline
			// epoch to the read-share list, preserving first-read order.
			// Evidence moves out of the inline slot into the list entry.
			fast = false
			var rEv any
			if e.keepEv {
				_, rEv = e.getEv(addr)
				e.setREv(addr, nil)
			}
			first := d.r
			t.setRS(i, append(t.promote(i),
				mrec{rec: first, ev: rEv}, mrec{rec: now, ev: e.evIn}))
			t.flags[i] = f&^cellRead | cellMulti
			e.prom++
			e.cProm.Inc()
		}
	default:
		rs := t.rs(i)
		for k := range rs {
			if rs[k].tid == tid {
				rs[k] = mrec{rec: now, ev: e.evIn}
				if fast {
					e.fast++
					e.cFast.Inc()
				}
				return
			}
		}
		fast = false
		t.setRS(i, append(rs, mrec{rec: now, ev: e.evIn}))
	}
	if fast {
		e.fast++
		e.cFast.Inc()
	}
}

func (e *Engine) setWEv(addr uint64, ev any) {
	p := e.tab.ev(addr, ev != nil)
	if p != nil {
		p.w = ev
		p.r = nil // the write clears the inline read
	}
}

func (e *Engine) setREv(addr uint64, ev any) {
	p := e.tab.ev(addr, ev != nil)
	if p != nil {
		p.r = ev
	}
}

func (e *Engine) getEv(addr uint64) (w, r any) {
	if p := e.tab.ev(addr, false); p != nil {
		return p.w, p.r
	}
	return nil, nil
}

// report hands the race to the caller with the stored attribution.
func (e *Engine) report(prev *rec, prevEv any, prevWrite bool, cur *Access) {
	if e.opts.OnRace != nil {
		e.opts.OnRace(Prev{Seq: prev.seq, TID: prev.tid, Write: prevWrite, PC: prev.pc, Ev: prevEv}, cur)
	}
}
