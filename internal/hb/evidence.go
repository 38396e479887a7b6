package hb

import (
	"fmt"
	"sort"
	"strings"

	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/trace"
)

// SyncRef identifies one logged synchronization event: the operation, its
// program counter, the sync var it touched, and the (Counter, TS) pair
// that names the event uniquely across the whole log (per-counter
// timestamps are dense). A zero SyncRef (Valid == false) means the thread
// had performed no such operation yet.
type SyncRef struct {
	Valid   bool
	Op      trace.SyncOp
	PC      lir.PC
	Var     uint64
	Counter uint8
	TS      uint64
}

func syncRefOf(e trace.Event) SyncRef {
	return SyncRef{Valid: true, Op: e.Op, PC: e.PC, Var: e.Addr, Counter: e.Counter, TS: e.TS}
}

// String renders the reference canonically: "op var=0x… c<counter>#<ts> @pc",
// or "none" for the zero value.
func (s SyncRef) String() string {
	if !s.Valid {
		return "none"
	}
	return fmt.Sprintf("%v var=%#x c%d#%d @%v", s.Op, s.Var, s.Counter, s.TS, s.PC)
}

// AccessEvidence is the forensic snapshot captured at one memory access
// when Options.Evidence is on: the accessing thread's vector clock at
// that moment (immutable — do not mutate), its last release and acquire
// (the happens-before "frontier": everything the thread had published and
// observed), and the set of lock addresses it held. Evidence is captured
// identically by the batch detector and the streaming clock engine, so
// renderings are byte-comparable across paths.
type AccessEvidence struct {
	VC      VC       // clock snapshot at the access; treat as immutable
	LastRel SyncRef  // thread's most recent release before the access
	LastAcq SyncRef  // thread's most recent acquire before the access
	Locks   []uint64 // sorted addresses of locks held at the access
}

// String renders the evidence canonically (one line; the forensics
// package formats multi-line views from the fields).
func (e *AccessEvidence) String() string {
	if e == nil {
		return "<no evidence>"
	}
	return fmt.Sprintf("vc=%s rel=[%v] acq=[%v] locks=%s",
		VCString(e.VC), e.LastRel, e.LastAcq, LocksString(e.Locks))
}

// VCString renders a vector clock compactly as "[t0:3 t2:9]", omitting
// zero entries so logically equal clocks of different slice lengths
// render identically.
func VCString(v VC) string {
	var b strings.Builder
	b.WriteByte('[')
	first := true
	for t, c := range v {
		if c == 0 {
			continue
		}
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "t%d:%d", t, c)
	}
	b.WriteByte(']')
	return b.String()
}

// LocksString renders a held-lock set as "{0x10,0x20}" ("{}" when empty).
func LocksString(locks []uint64) string {
	if len(locks) == 0 {
		return "{}"
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, a := range locks {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%#x", a)
	}
	b.WriteByte('}')
	return b.String()
}

// EvidenceState is the per-thread forensic bookkeeping both engines keep
// in evidence mode: the last release/acquire references and the held
// lockset. It deliberately mirrors the lockset detector's rule — only
// OpLock/OpUnlock change lock ownership; other acquire/release ops (cas,
// wait, fork, …) move the frontier but hold nothing.
type EvidenceState struct {
	lastRel SyncRef
	lastAcq SyncRef
	locks   []uint64 // sorted
}

// OnSync folds one synchronization event into the state. Call it for
// every KindAcquire/KindRelease/KindAcqRel event of the thread, in order.
func (s *EvidenceState) OnSync(e trace.Event) {
	switch e.Kind {
	case trace.KindAcquire:
		s.lastAcq = syncRefOf(e)
		if e.Op == trace.OpLock {
			s.locks = insertLock(s.locks, e.Addr)
		}
	case trace.KindRelease:
		s.lastRel = syncRefOf(e)
		if e.Op == trace.OpUnlock {
			s.locks = removeLock(s.locks, e.Addr)
		}
	case trace.KindAcqRel:
		r := syncRefOf(e)
		s.lastAcq, s.lastRel = r, r
	}
}

// Snapshot captures the evidence for one access. pub must be an immutable
// snapshot of the thread's vector clock (clone-on-write); the lockset is
// copied so later lock operations cannot mutate recorded evidence.
func (s *EvidenceState) Snapshot(pub VC) *AccessEvidence {
	ev := &AccessEvidence{VC: pub, LastRel: s.lastRel, LastAcq: s.lastAcq}
	if len(s.locks) > 0 {
		ev.Locks = append([]uint64(nil), s.locks...)
	}
	return ev
}

func insertLock(locks []uint64, addr uint64) []uint64 {
	i := sort.Search(len(locks), func(i int) bool { return locks[i] >= addr })
	if i < len(locks) && locks[i] == addr {
		return locks // recursive lock: set semantics
	}
	locks = append(locks, 0)
	copy(locks[i+1:], locks[i:])
	locks[i] = addr
	return locks
}

func removeLock(locks []uint64, addr uint64) []uint64 {
	i := sort.Search(len(locks), func(i int) bool { return locks[i] >= addr })
	if i < len(locks) && locks[i] == addr {
		return append(locks[:i], locks[i+1:]...)
	}
	return locks
}

// NearMiss is one near-miss row: a cross-thread conflicting pair to the
// same address that WAS ordered by happens-before, but with fewer than
// the configured margin of clock ticks to spare. A large near-miss count
// on a static pair estimates orderings the sampler observed only barely —
// candidates it would likely miss under lighter sampling or a slightly
// different schedule.
type NearMiss struct {
	A, B      lir.PC // normalized static pair (A <= B)
	Count     uint64 // ordered conflicting pairs within the margin
	MinMargin uint64 // smallest happens-before margin observed
}

// nearKey is a normalized static pair.
type nearKey struct{ a, b lir.PC }

type nearAgg struct {
	count uint64
	min   uint64
}

// nearAccum accumulates near-miss statistics per static pair. A nil
// accumulator is inert. Detector and ReferenceDetector each hold one.
type nearAccum struct {
	margin uint64
	m      map[nearKey]*nearAgg
}

// newNearAccum returns an accumulator counting ordered pairs whose
// happens-before margin is strictly below margin; margin <= 0 returns nil
// (disabled).
func newNearAccum(margin int) *nearAccum {
	if margin <= 0 {
		return nil
	}
	return &nearAccum{margin: uint64(margin), m: make(map[nearKey]*nearAgg)}
}

// Note records one ordered conflicting pair with the given margin
// (now.At(prev.tid) - prev.clk, ≥ 0 for an ordered pair). Pairs at or
// above the configured margin are ignored.
func (n *nearAccum) Note(prev, cur lir.PC, margin uint64) {
	if n == nil || margin >= n.margin {
		return
	}
	a, b := prev, cur
	if b.Less(a) {
		a, b = b, a
	}
	k := nearKey{a, b}
	agg := n.m[k]
	if agg == nil {
		agg = &nearAgg{min: margin}
		n.m[k] = agg
	} else if margin < agg.min {
		agg.min = margin
	}
	agg.count++
}

// Rows returns the accumulated rows sorted by static pair.
func (n *nearAccum) Rows() []NearMiss {
	if n == nil || len(n.m) == 0 {
		return nil
	}
	out := make([]NearMiss, 0, len(n.m))
	for k, agg := range n.m {
		out = append(out, NearMiss{A: k.a, B: k.b, Count: agg.count, MinMargin: agg.min})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A.Less(out[j].A)
		}
		return out[i].B.Less(out[j].B)
	})
	return out
}

// NearMissCounterPrefix names the per-pair near-miss counter family
// (hb.near_miss.<A><-><B>); hb.near_miss_total carries the overall count.
// The Prometheus encoder folds the family into one labeled series,
// literace_hb_near_miss{pair="..."}. At most nearMissObsKeyCap distinct
// pairs get their own counter (smallest keys first, deterministically);
// the total is never truncated.
const (
	NearMissCounterPrefix = "hb.near_miss."
	NearMissTotalCounter  = "hb.near_miss_total"
)

// nearMissObsKeyCap bounds the per-pair counter family so a pathological
// workload cannot blow up the registry.
const nearMissObsKeyCap = 64

// PublishNearMisses publishes the rows' telemetry into reg (nil-safe):
// the total counter plus one per-pair counter for up to nearMissObsKeyCap
// pairs in sorted order. Batch and streaming passes call it exactly once
// per pass, so they publish identical readings.
func PublishNearMisses(reg *obs.Registry, rows []NearMiss) {
	if reg == nil || len(rows) == 0 {
		return
	}
	var total uint64
	for _, r := range rows {
		total += r.Count
	}
	reg.Counter(NearMissTotalCounter).Add(total)
	for i, r := range rows {
		if i >= nearMissObsKeyCap {
			break
		}
		key := fmt.Sprintf("%s%v<->%v", NearMissCounterPrefix, r.A, r.B)
		reg.Counter(key).Add(r.Count)
	}
}

// DefaultNearMissMargin is the margin explain and diag use when the
// caller does not override it: an ordered pair with fewer than 3 clock
// ticks of happens-before slack counts as a near miss.
const DefaultNearMissMargin = 3
