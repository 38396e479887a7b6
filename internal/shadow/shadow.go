// Package shadow implements the epoch fast-path detector core: a
// FastTrack-style representation of per-variable access history where
// the common case — an access that stays on the same thread, or is
// ordered after every recorded conflicting access — is decided in O(1)
// against scalar (thread, clock) epochs, and the full read-share state
// (one epoch per concurrently-reading thread) is materialized only when
// unordered reads from multiple threads force it.
//
// This is the only access-history store of the detector: hb.Detector
// owns one, and the batch, online and streaming passes all run an
// hb.Detector. It knows nothing about trace replay, vector-clock
// bookkeeping, or evidence capture. Callers drive the sync-clock side
// themselves (hb's clock engine) and hand each sampled memory access to
// the engine together with a view of the accessing thread's vector
// clock; the engine answers with race callbacks that carry exactly the
// attribution the caller stored. hb.ReferenceDetector, the textbook
// full-vector-clock detector, is the differential oracle for it.
//
// Backing storage is a word-granular open-addressed shadow-memory
// table: one inline cell per exact address, no per-address heap
// allocation, optionally bounded with deterministic eviction
// accounting.
package shadow

import (
	"literace/internal/lir"
	"literace/internal/obs"
)

// Access is one sampled memory access handed to the engine. VC is the
// accessing thread's vector clock at access time; the engine only reads
// it (ordered lookups against stored epochs) and never retains it, so
// callers may pass their live clock (batch) or an immutable snapshot
// (streaming). Ev is an opaque evidence payload stored with the access
// history and handed back verbatim on the racing side of a report; nil
// when evidence capture is off.
type Access struct {
	Addr  uint64
	Seq   uint64 // per-thread analyzed-memory ordinal (1-based)
	TID   int32
	Write bool
	PC    lir.PC
	VC    []uint64
	Ev    any
}

// Prev describes the stored earlier access of a reported race.
type Prev struct {
	Seq   uint64
	TID   int32
	Write bool
	PC    lir.PC
	Ev    any
}

// Options configures an Engine.
type Options struct {
	// MaxCells bounds the live cells in the shadow table; 0 means
	// unbounded. A bounded table evicts deterministically (round-robin
	// sweep) and counts every eviction; losing history can only hide
	// races (false negatives, like sampling itself), never invent them.
	MaxCells int

	// Obs, when non-nil, receives the engine counters epoch.fastpath_hits,
	// epoch.promotions and shadow.evictions as the pass runs.
	Obs *obs.Registry

	// OnRace is invoked for every conflicting unordered pair, in the
	// exact order the reference detector reports them: the write check
	// first, then recorded reads in first-read order. cur is only valid
	// for the duration of the call; copy what you keep.
	OnRace func(prev Prev, cur *Access)

	// OnOrdered, when non-nil, is invoked for every cross-thread
	// conflicting pair that IS ordered, with the happens-before slack in
	// clock ticks — the near-miss feed. Leave nil to skip the calls.
	OnOrdered func(prevPC, curPC lir.PC, margin uint64)
}

// Stats is a snapshot of the engine's core counters.
type Stats struct {
	// Accesses counts every access the engine analyzed.
	Accesses uint64
	// FastpathHits counts accesses decided without any cross-thread
	// epoch comparison: same-owner or virgin state, the FastTrack O(1)
	// case.
	FastpathHits uint64
	// Promotions counts single-reader -> read-share transitions.
	Promotions uint64
	// Evictions counts cells evicted from a bounded shadow table.
	Evictions uint64
	// Cells is the number of live shadow cells at snapshot time.
	Cells int
}

// clockAt reads tid's component of a vector clock snapshot; components
// beyond the stored length are zero (same convention as hb.VC.At).
func clockAt(vc []uint64, tid int32) uint64 {
	if int(tid) < len(vc) {
		return vc[tid]
	}
	return 0
}
