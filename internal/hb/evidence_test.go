package hb

import (
	"reflect"
	"strings"
	"testing"

	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/trace"
)

func TestVCString(t *testing.T) {
	if got := VCString(nil); got != "[]" {
		t.Errorf("nil clock = %q", got)
	}
	// Zero entries are omitted, so logically equal clocks of different
	// lengths render identically.
	short := VC{0, 3, 0, 9}
	long := VC{0, 3, 0, 9, 0, 0}
	if VCString(short) != VCString(long) {
		t.Errorf("padded clock renders differently: %q vs %q", VCString(short), VCString(long))
	}
	if got := VCString(short); got != "[t1:3 t3:9]" {
		t.Errorf("VCString = %q", got)
	}
}

func TestLocksString(t *testing.T) {
	if got := LocksString(nil); got != "{}" {
		t.Errorf("empty lockset = %q", got)
	}
	if got := LocksString([]uint64{0x10, 0x20}); got != "{0x10,0x20}" {
		t.Errorf("lockset = %q", got)
	}
}

func TestSyncRefString(t *testing.T) {
	if got := (SyncRef{}).String(); got != "none" {
		t.Errorf("zero ref = %q", got)
	}
	r := syncRefOf(trace.Event{
		Kind: trace.KindAcquire, Op: trace.OpLock,
		PC: lir.PC{Func: 2, Index: 5}, Addr: 0x40, Counter: 1, TS: 7,
	})
	s := r.String()
	for _, want := range []string{"var=0x40", "c1#7", "f2:5"} {
		if !strings.Contains(s, want) {
			t.Errorf("ref %q missing %q", s, want)
		}
	}
}

func TestEvidenceStateLockset(t *testing.T) {
	var st EvidenceState
	lock := func(addr uint64) trace.Event {
		return trace.Event{Kind: trace.KindAcquire, Op: trace.OpLock, Addr: addr}
	}
	unlock := func(addr uint64) trace.Event {
		return trace.Event{Kind: trace.KindRelease, Op: trace.OpUnlock, Addr: addr}
	}
	st.OnSync(lock(0x20))
	st.OnSync(lock(0x10))
	st.OnSync(lock(0x20)) // recursive: set semantics, no duplicate
	ev := st.Snapshot(nil)
	if !reflect.DeepEqual(ev.Locks, []uint64{0x10, 0x20}) {
		t.Errorf("locks = %v, want sorted dedup [0x10 0x20]", ev.Locks)
	}
	st.OnSync(unlock(0x10))
	st.OnSync(unlock(0x30)) // never held: no-op
	if got := st.Snapshot(nil).Locks; !reflect.DeepEqual(got, []uint64{0x20}) {
		t.Errorf("locks after unlock = %v", got)
	}
	// The earlier snapshot is immutable: later ops must not leak into it.
	if !reflect.DeepEqual(ev.Locks, []uint64{0x10, 0x20}) {
		t.Errorf("snapshot mutated by later ops: %v", ev.Locks)
	}
}

func TestEvidenceStateFrontier(t *testing.T) {
	var st EvidenceState
	st.OnSync(trace.Event{Kind: trace.KindAcquire, Op: trace.OpLock, Addr: 0x10, TS: 1})
	st.OnSync(trace.Event{Kind: trace.KindRelease, Op: trace.OpUnlock, Addr: 0x10, TS: 2})
	ev := st.Snapshot(nil)
	if !ev.LastAcq.Valid || ev.LastAcq.TS != 1 {
		t.Errorf("last acquire = %+v", ev.LastAcq)
	}
	if !ev.LastRel.Valid || ev.LastRel.TS != 2 {
		t.Errorf("last release = %+v", ev.LastRel)
	}
	// KindAcqRel (e.g. fork) moves both sides of the frontier but holds
	// no lock.
	st.OnSync(trace.Event{Kind: trace.KindAcqRel, Op: trace.OpFork, Addr: 0x99, TS: 3})
	ev = st.Snapshot(nil)
	if ev.LastAcq.TS != 3 || ev.LastRel.TS != 3 {
		t.Errorf("acq-rel frontier = acq %d rel %d, want 3/3", ev.LastAcq.TS, ev.LastRel.TS)
	}
	if len(ev.Locks) != 0 {
		t.Errorf("acq-rel touched the lockset: %v", ev.Locks)
	}
}

func TestNearAccumDisabled(t *testing.T) {
	if newNearAccum(0) != nil || newNearAccum(-1) != nil {
		t.Fatal("margin <= 0 must return a nil (inert) accumulator")
	}
	var n *nearAccum
	n.Note(lir.PC{}, lir.PC{}, 0) // nil-safe
	if n.Rows() != nil {
		t.Error("nil accumulator produced rows")
	}
}

func TestNearAccumStrictMargin(t *testing.T) {
	n := newNearAccum(3)
	a, b := lir.PC{Func: 1, Index: 0}, lir.PC{Func: 2, Index: 0}
	n.Note(a, b, 3) // at the margin: NOT a near miss (strict <)
	if n.Rows() != nil {
		t.Fatal("margin == threshold counted")
	}
	n.Note(a, b, 2)
	n.Note(b, a, 0) // reversed pair normalizes onto the same key
	rows := n.Rows()
	if len(rows) != 1 {
		t.Fatalf("rows = %d, want 1", len(rows))
	}
	if rows[0].Count != 2 || rows[0].MinMargin != 0 {
		t.Errorf("row = %+v, want count 2 min 0", rows[0])
	}
	if rows[0].B.Less(rows[0].A) {
		t.Error("pair not normalized")
	}
}

func TestNearAccumSort(t *testing.T) {
	a := newNearAccum(5)
	p1, p2 := lir.PC{Func: 1}, lir.PC{Func: 2}
	a.Note(p2, p2, 2)
	a.Note(p1, p1, 4)
	a.Note(p2, p2, 1)
	a.Note(p1, p1, 3)
	rows := a.Rows()
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].A.Func != 1 || rows[1].A.Func != 2 {
		t.Errorf("rows not sorted by pair: %+v", rows)
	}
	if rows[0].Count != 2 || rows[0].MinMargin != 3 {
		t.Errorf("row 0 = %+v", rows[0])
	}
	if rows[1].Count != 2 || rows[1].MinMargin != 1 {
		t.Errorf("row 1 = %+v", rows[1])
	}
}

func TestPublishNearMisses(t *testing.T) {
	reg := obs.New()
	rows := []NearMiss{
		{A: lir.PC{Func: 1}, B: lir.PC{Func: 2}, Count: 3, MinMargin: 1},
		{A: lir.PC{Func: 4}, B: lir.PC{Func: 5}, Count: 2, MinMargin: 0},
	}
	PublishNearMisses(reg, rows)
	snap := reg.Snapshot()
	if got := snap.Counters[NearMissTotalCounter]; got != 5 {
		t.Errorf("total = %d, want 5", got)
	}
	if got := snap.Counters[NearMissCounterPrefix+"f1:0<->f2:0"]; got != 3 {
		t.Errorf("pair counter = %d, want 3", got)
	}
	// Nil registry and empty rows are no-ops.
	PublishNearMisses(nil, rows)
	PublishNearMisses(reg, nil)
}
