package hb

import (
	"literace/internal/lir"
	"literace/internal/trace"
)

// ReferenceDetector is a deliberately simple happens-before detector,
// the differential oracle for Detector: it keeps, per address, the full
// list of unsubsumed accesses with complete vector-clock snapshots, and
// compares every new access against all of them. This is the textbook
// O(threads) per-access formulation the paper's §2.2 calls out as the
// metadata cost problem; Detector gets the same answers with
// FastTrack-style epochs. It reports everything Detector reports — the
// same races in the same order with the same Seq ordinals, unconfirmed
// tags, evidence and near-miss rows — so differential tests compare
// whole Results.
type ReferenceDetector struct {
	opts     Options
	res      Result
	degraded bool
	threads  map[int32]*refThread
	vars     map[uint64]VC
	mem      map[uint64][]refAccess
	near     *nearAccum
}

type refThread struct {
	vc     VC
	memSeq uint64
	ev     EvidenceState
}

type refAccess struct {
	tid   int32
	vc    VC // full snapshot at access time
	pc    lir.PC
	write bool
	seq   uint64
	ev    *AccessEvidence
}

// NewReferenceDetector returns the reference implementation.
func NewReferenceDetector(opts Options) *ReferenceDetector {
	return &ReferenceDetector{
		opts:    opts,
		threads: make(map[int32]*refThread),
		vars:    make(map[uint64]VC),
		mem:     make(map[uint64][]refAccess),
		near:    newNearAccum(opts.NearMissMargin),
	}
}

func (d *ReferenceDetector) thread(tid int32) *refThread {
	t, ok := d.threads[tid]
	if !ok {
		t = &refThread{vc: VC{}.Set(tid, 1)}
		d.threads[tid] = t
	}
	return t
}

// Process consumes one event in replay order.
func (d *ReferenceDetector) Process(e trace.Event) {
	switch e.Kind {
	case trace.KindAcquire, trace.KindRelease, trace.KindAcqRel:
		d.res.SyncOps++
		t := d.thread(e.TID)
		if lv, ok := d.vars[e.Addr]; ok && e.Kind != trace.KindRelease {
			t.vc = t.vc.Join(lv)
		}
		if e.Kind != trace.KindAcquire {
			d.vars[e.Addr] = d.vars[e.Addr].Join(t.vc)
			t.vc = t.vc.Tick(e.TID)
		}
		if d.opts.Evidence {
			t.ev.OnSync(e)
		}
	case trace.KindRead, trace.KindWrite:
		if d.opts.SamplerBit >= 0 && e.Mask&(1<<uint(d.opts.SamplerBit)) == 0 {
			return
		}
		d.res.MemOps++
		d.access(e)
	}
}

func (d *ReferenceDetector) access(e trace.Event) {
	t := d.thread(e.TID)
	t.memSeq++
	acc := refAccess{tid: e.TID, vc: t.vc.Clone(), pc: e.PC, write: e.Kind == trace.KindWrite, seq: t.memSeq}
	if d.opts.Evidence {
		acc.ev = t.ev.Snapshot(acc.vc)
	}

	// Compare against every retained access, in retention order; report
	// the conflicts not happens-before ordered, note the ordered ones.
	accs := d.mem[e.Addr]
	for _, a := range accs {
		if a.tid == e.TID || (!a.write && !acc.write) {
			continue
		}
		if a.vc.At(a.tid) <= t.vc.At(a.tid) {
			d.near.Note(a.pc, e.PC, t.vc.At(a.tid)-a.vc.At(a.tid))
			continue
		}
		d.report(DynamicRace{
			PrevPC: a.pc, CurPC: e.PC,
			PrevWrite: a.write, CurWrite: acc.write,
			PrevTID: a.tid, CurTID: e.TID,
			PrevSeq: a.seq, CurSeq: acc.seq,
			Addr:         e.Addr,
			PrevEvidence: a.ev, CurEvidence: acc.ev,
		})
	}

	// Retain the access, subsuming what it dominates: a write subsumes
	// the whole history (everything unordered was just reported,
	// everything ordered is dominated); a read replaces this thread's
	// earlier read where it stood, or joins the end.
	if acc.write {
		d.mem[e.Addr] = append(accs[:0], acc)
		return
	}
	for i, a := range accs {
		if !a.write && a.tid == e.TID {
			accs[i] = acc
			return
		}
	}
	d.mem[e.Addr] = append(accs, acc)
}

// MarkDegraded tags every race reported from now on unconfirmed, as
// Detector.MarkDegraded does.
func (d *ReferenceDetector) MarkDegraded() {
	d.degraded = true
	d.res.Degraded = true
}

func (d *ReferenceDetector) report(r DynamicRace) {
	if d.degraded {
		r.Unconfirmed = true
		d.res.Unconfirmed++
	}
	d.res.NumRaces++
	if d.opts.OnRace != nil {
		d.opts.OnRace(r)
	}
	if d.opts.KeepMax == 0 || len(d.res.Races) < d.opts.KeepMax {
		d.res.Races = append(d.res.Races, r)
	}
}

// Result returns the accumulated result.
func (d *ReferenceDetector) Result() *Result {
	d.res.NearMisses = d.near.Rows()
	return &d.res
}

// DetectReference replays log through the reference detector.
func DetectReference(log *trace.Log, opts Options) (*Result, error) {
	d := NewReferenceDetector(opts)
	if err := Replay(log, func(e trace.Event) error {
		d.Process(e)
		return nil
	}); err != nil {
		return nil, err
	}
	return d.Result(), nil
}
