package hb

import (
	"fmt"

	"literace/internal/obs"
	"literace/internal/trace"
)

// Replay merges the per-thread event streams of log into one legal global
// order and invokes fn on each event.
//
// The log carries no global sequence numbers: at runtime each sync event
// atomically incremented one of trace.NumCounters counters chosen by
// hashing its SyncVar, so the timestamps on each counter are dense
// (1, 2, 3, ...). A sync event is therefore *ready* exactly when its
// timestamp is the next expected value for its counter; memory events are
// ready whenever reached in program order. Because the original execution
// produced the timestamps in a real interleaving, a well-formed log always
// has at least one ready event until all streams drain; anything else
// indicates corruption and is reported as an error.
func Replay(log *trace.Log, fn func(trace.Event) error) error {
	return ReplayObs(log, nil, fn)
}

// ReplayObs is Replay with ready-queue telemetry: when reg is non-nil it
// counts merge rounds (hb.replay_rounds) and ready-queue stalls
// (hb.replay_stalls — times a thread's stream blocked on a timestamp that
// was not yet the next expected value for its counter).
func ReplayObs(log *trace.Log, reg *obs.Registry, fn func(trace.Event) error) error {
	_, err := replay(log, reg, nil, nil, eachEvent(fn))
	return err
}

// eachEvent adapts a per-event consumer to the Merger's runs.
func eachEvent(fn func(trace.Event) error) func([]trace.Event) (int, error) {
	return func(run []trace.Event) (int, error) {
		for i := range run {
			if err := fn(run[i]); err != nil {
				return i + 1, err
			}
		}
		return len(run), nil
	}
}

// Degradation describes the orderings a degraded replay weakened to get
// past missing or damaged sync events. A zero Degradation means the log
// replayed exactly as a pristine one would.
type Degradation struct {
	// Skips counts stuck resolutions: moments when no thread had a ready
	// event and the replayer fast-forwarded a timestamp counter over
	// missing slots.
	Skips int
	// SlotsSkipped totals the missing timestamp slots jumped over.
	SlotsSkipped uint64
	// StaleEvents counts sync events replayed whose timestamp slot had
	// already passed (the signature of a duplicated or resurrected chunk).
	StaleEvents int
	// BadCounters counts sync events with out-of-range counter ids that
	// were replayed without ordering (corrupt events a salvage let
	// through).
	BadCounters int
	// SuspectEvents counts events delivered from a stream position at or
	// past a salvage loss (trace.Log.Degraded).
	SuspectEvents int
}

// Degraded reports whether any ordering was weakened: races first
// observed afterwards are unconfirmed.
func (g *Degradation) Degraded() bool {
	return g != nil && (g.Skips > 0 || g.StaleEvents > 0 || g.BadCounters > 0 || g.SuspectEvents > 0)
}

func (g *Degradation) String() string {
	if !g.Degraded() {
		return "no degradation"
	}
	return fmt.Sprintf("%d skips over %d missing timestamp slots, %d stale events, %d bad counters, %d suspect events",
		g.Skips, g.SlotsSkipped, g.StaleEvents, g.BadCounters, g.SuspectEvents)
}

// ReplayDegraded replays a possibly damaged log (e.g. one recovered by
// trace.Salvage). Where Replay fails — a missing timestamp, an event
// stream that follows a salvage loss, an out-of-range counter — it
// instead weakens the affected cross-thread orderings and keeps going:
// stuck counters are fast-forwarded past the missing slots, stale and
// corrupt sync events are delivered without ordering, and onDegrade (when
// non-nil) fires before the first event whose ordering is no longer
// trustworthy, so a detector can split its findings into confirmed and
// unconfirmed. When reg is non-nil, hb.degraded_skips counts the slots
// skipped alongside the usual replay telemetry. The returned error can
// only come from fn.
func ReplayDegraded(log *trace.Log, reg *obs.Registry, onDegrade func(), fn func(trace.Event) error) (*Degradation, error) {
	deg := &Degradation{}
	return replay(log, reg, deg, onDegrade, eachEvent(fn))
}

// replay drives the shared Merger, handing fn its runs. When the log
// carries its chunk order (decoded logs do), chunks are added in byte
// order with a pump after each — the canonical arrival order, identical
// to what the online pipeline sees while the log is still being
// written. Hand-built logs (nil ChunkOrder) add each thread's stream as
// one batch, which reproduces the classic whole-log round-robin merge.
func replay(log *trace.Log, reg *obs.Registry, deg *Degradation, onDegrade func(), fn func([]trace.Event) (int, error)) (*Degradation, error) {
	m := NewMerger(MergerOptions{Obs: reg, Degraded: deg, OnDegrade: onDegrade})
	if len(log.ChunkOrder) > 0 {
		offs := make(map[int32]int, len(log.Threads))
		for _, c := range log.ChunkOrder {
			evs := log.Threads[c.TID]
			start := offs[c.TID]
			end := start + c.N
			if end > len(evs) {
				end = len(evs)
			}
			if start >= end {
				continue
			}
			offs[c.TID] = end
			if err := m.Add(c.TID, evs[start:end], relSuspect(log, c.TID, start, end)); err != nil {
				return deg, err
			}
			if err := m.Pump(fn); err != nil {
				return deg, err
			}
		}
		// Defensive: a hand-modified log whose streams extend past its
		// ChunkOrder still replays in full.
		for _, tid := range log.TIDs() {
			evs := log.Threads[tid]
			if start := offs[tid]; start < len(evs) {
				if err := m.Add(tid, evs[start:], relSuspect(log, tid, start, len(evs))); err != nil {
					return deg, err
				}
			}
		}
	} else {
		for _, tid := range log.TIDs() {
			evs := log.Threads[tid]
			if err := m.Add(tid, evs, relSuspect(log, tid, 0, len(evs))); err != nil {
				return deg, err
			}
		}
	}
	if err := m.Finish(fn); err != nil {
		return deg, err
	}
	return deg, nil
}

// relSuspect maps log.Degraded's absolute per-thread suspect index into
// the chunk [start, end), clamped to the Merger.Add contract.
func relSuspect(log *trace.Log, tid int32, start, end int) int {
	idx, ok := log.Degraded[tid]
	if !ok || idx >= end {
		return end - start
	}
	if idx <= start {
		return 0
	}
	return idx - start
}
