package hb

import (
	"errors"
	"fmt"

	"literace/internal/obs"
	"literace/internal/trace"
)

// Misuse guards: a Merger is single-shot. Feeding chunks into a merge
// that already drained would silently deliver them out of the canonical
// order (the counters have been fast-forwarded), so both misuses are
// errors instead of corruption.
var (
	// ErrAddAfterFinish is returned by Add once Finish has run.
	ErrAddAfterFinish = errors.New("hb: merger: Add after Finish")
	// ErrDoubleFinish is returned by a second Finish call.
	ErrDoubleFinish = errors.New("hb: merger: Finish called twice")
)

// Merger is the incremental ready-queue merge engine behind Replay: it
// reconstructs a legal global order from per-thread event streams that
// arrive piece by piece. Batch replay feeds it the log's chunks in byte
// order (trace.Log.ChunkOrder); the online pipeline feeds it chunks as
// the decoder accepts them. Both walk the same code over the same chunk
// sequence, which is what makes streaming detection results identical to
// a batch pass over the same bytes.
//
// Usage: Add each chunk, Pump after every Add (delivery order is defined
// as "drain everything that becomes ready after each chunk", so skipping
// a Pump changes the canonical order), then Finish once the input is
// over. In strict mode (MergerOptions.Degraded nil) a log that cannot
// drain is an error; in degraded mode Finish fast-forwards stuck
// timestamp counters and accounts every weakened ordering.
//
// The Merger owns its event storage: Add copies each chunk into the
// thread's queue of fixed-size blocks, and a block whose events have all
// been delivered goes onto a free list that any thread's next Add
// reuses. A backlog of the whole log (a thread whose first event waits
// on a chunk flushed at exit) therefore costs one copy per event and no
// slice regrowth, and delivered events pin at most one spare block per
// thread.
type Merger struct {
	deg       *Degradation
	onDegrade func()
	degraded  bool

	queues []*mergeQueue // ascending tid
	byTID  map[int32]*mergeQueue
	next   [trace.NumCounters]uint64
	free   []*mergeBlock // delivered blocks, ready for reuse; at most one per queue

	remaining  int
	backlogHWM int
	delivered  uint64
	nStalls    uint64
	finished   bool

	stalls, rounds, skips *obs.Counter
}

// mergeBlockLen is the number of events a mergeBlock holds. Small
// enough that a partial tail block per thread stays cheap at hundreds of
// threads (256 × 24 KiB), large enough that block handling is noise.
const mergeBlockLen = 512

// mergeBlock is one fixed-size segment of a thread's reorder buffer. It
// holds no pointers, so the collector never scans the backlog.
type mergeBlock [mergeBlockLen]trace.Event

// mergeQueue is one thread's reorder buffer: a FIFO of blocks holding
// the events that have arrived but not yet been delivered. The pending
// events run from head[pos] (head is blocks[h]) to the last block's
// [end-1]; n counts them.
type mergeQueue struct {
	tid         int32
	head        *mergeBlock
	blocks      []*mergeBlock
	h           int
	pos, end    int
	n           int
	taken       uint64 // events already delivered
	suspectFrom uint64 // absolute per-thread index of the first suspect event
	hasSuspect  bool
}

// MergerOptions configures a Merger.
type MergerOptions struct {
	// Obs, when non-nil, counts merge rounds (hb.replay_rounds),
	// ready-queue stalls (hb.replay_stalls), and degraded skips
	// (hb.degraded_skips).
	Obs *obs.Registry
	// Degraded, when non-nil, switches the merger to degraded mode:
	// orderings the input cannot support are weakened instead of
	// reported as errors, with the weakenings accounted here.
	Degraded *Degradation
	// OnDegrade, when non-nil, fires before the first event whose
	// ordering was weakened (see ReplayDegraded).
	OnDegrade func()
}

// NewMerger returns an empty merge engine.
func NewMerger(opts MergerOptions) *Merger {
	m := &Merger{
		deg:       opts.Degraded,
		onDegrade: opts.OnDegrade,
		byTID:     make(map[int32]*mergeQueue),
	}
	if opts.Obs != nil {
		m.stalls = opts.Obs.Counter("hb.replay_stalls")
		m.rounds = opts.Obs.Counter("hb.replay_rounds")
		m.skips = opts.Obs.Counter("hb.degraded_skips")
	}
	for i := range m.next {
		m.next[i] = 1
	}
	return m
}

func (m *Merger) queue(tid int32) *mergeQueue {
	q := m.byTID[tid]
	if q != nil {
		return q
	}
	q = &mergeQueue{tid: tid}
	m.byTID[tid] = q
	// Keep queues sorted by tid: the merge visits threads in ascending
	// tid order each round, matching the original batch replay.
	i := len(m.queues)
	m.queues = append(m.queues, q)
	for i > 0 && m.queues[i-1].tid > tid {
		m.queues[i], m.queues[i-1] = m.queues[i-1], m.queues[i]
		i--
	}
	return q
}

// Add copies one chunk of a thread's stream into the merge; evs is not
// retained. suspectFrom is the index within evs from which events follow
// a salvage loss (len(evs) or more for "none", 0 for the whole chunk);
// once a thread turns suspect it stays suspect. Adding to a finished
// merge returns ErrAddAfterFinish and buffers nothing.
func (m *Merger) Add(tid int32, evs []trace.Event, suspectFrom int) error {
	if m.finished {
		return ErrAddAfterFinish
	}
	q := m.queue(tid)
	if suspectFrom < len(evs) && !q.hasSuspect {
		q.hasSuspect = true
		if suspectFrom < 0 {
			suspectFrom = 0
		}
		q.suspectFrom = q.taken + uint64(q.n) + uint64(suspectFrom)
	}
	q.n += len(evs)
	m.remaining += len(evs)
	if m.remaining > m.backlogHWM {
		m.backlogHWM = m.remaining
	}
	for len(evs) > 0 {
		if len(q.blocks) == 0 || q.end == mergeBlockLen {
			var b *mergeBlock
			if n := len(m.free); n > 0 {
				b = m.free[n-1]
				m.free = m.free[:n-1]
			} else {
				b = new(mergeBlock)
			}
			if len(q.blocks) == cap(q.blocks) && q.h > 0 {
				// Slide the pending blocks down over the released ones
				// instead of growing the slice.
				k := copy(q.blocks, q.blocks[q.h:])
				clear(q.blocks[k:])
				q.blocks, q.h = q.blocks[:k], 0
			}
			q.blocks = append(q.blocks, b)
			q.head, q.end = q.blocks[q.h], 0
		}
		c := copy(q.blocks[len(q.blocks)-1][q.end:], evs)
		q.end += c
		evs = evs[c:]
	}
	return nil
}

// release retires q's fully delivered head block: the next block
// becomes the head, or the queue empties. The free list keeps one spare
// block per thread, enough for steady streaming; the rest of a drained
// backlog goes to the collector instead of staying pinned.
func (m *Merger) release(q *mergeQueue) {
	if len(m.free) < len(m.queues) {
		m.free = append(m.free, q.head)
	}
	q.blocks[q.h] = nil
	q.h++
	q.pos = 0
	if q.h < len(q.blocks) {
		q.head = q.blocks[q.h]
		return
	}
	q.blocks, q.h, q.head, q.end = q.blocks[:0], 0, nil, 0
}

// Backlog returns the number of buffered, not-yet-delivered events.
func (m *Merger) Backlog() int { return m.remaining }

// BacklogHighWater returns the largest backlog ever observed — the peak
// number of events buffered waiting for an earlier timestamp. A high
// watermark far above the steady-state backlog marks a reordering storm
// (chunks arriving badly out of order) even after the merge drains.
func (m *Merger) BacklogHighWater() int { return m.backlogHWM }

// Delivered returns the number of events delivered so far.
func (m *Merger) Delivered() uint64 { return m.delivered }

// Stalls returns the number of ready-queue stalls so far: times a
// thread's stream blocked on a timestamp that was not yet the next
// expected value for its counter (the reorder cost of merging
// out-of-order chunk arrivals).
func (m *Merger) Stalls() uint64 { return m.nStalls }

func (m *Merger) markDegraded() {
	if !m.degraded {
		m.degraded = true
		if m.onDegrade != nil {
			m.onDegrade()
		}
	}
}

// Pump delivers every event that is ready, in rounds over the threads in
// ascending tid order, draining each greedily until it blocks on a
// timestamp or runs out of buffered events. It returns when a full round
// makes no progress (more input, a Finish, or nothing at all may be
// needed) or when fn fails.
func (m *Merger) Pump(fn func(trace.Event) error) error {
	if m.remaining == 0 {
		return nil
	}
	for {
		progressed := false
		m.rounds.Inc()
		for _, q := range m.queues {
			// Drain this thread greedily until it blocks on a timestamp.
		drain:
			for q.n > 0 {
				e := &q.head[q.pos]
				if e.Kind.IsSync() {
					switch {
					case int(e.Counter) >= trace.NumCounters:
						if m.deg == nil {
							return fmt.Errorf("hb: thread %d event %d: bad counter %d",
								q.tid, q.taken, e.Counter)
						}
						// Corrupt counter id: deliver unordered.
						m.deg.BadCounters++
						m.markDegraded()
					case m.next[e.Counter] == e.TS:
						m.next[e.Counter]++
					case m.deg != nil && e.TS < m.next[e.Counter]:
						// The slot already passed: a duplicated or
						// resurrected event. Deliver it, but its ordering
						// is meaningless.
						m.deg.StaleEvents++
						m.markDegraded()
					default:
						m.nStalls++
						m.stalls.Inc()
						break drain
					}
				}
				if m.deg != nil && q.hasSuspect && q.taken >= q.suspectFrom {
					m.deg.SuspectEvents++
					m.markDegraded()
				}
				ev := *e
				q.taken++
				q.n--
				if q.pos++; q.pos == mergeBlockLen || q.n == 0 {
					// The head block is spent (or the queue drained):
					// recycle it so the next Add reuses it.
					m.release(q)
				}
				m.remaining--
				m.delivered++
				progressed = true
				if err := fn(ev); err != nil {
					return err
				}
			}
		}
		if !progressed {
			return nil
		}
	}
}

// Finish drains everything left after the final Add. In strict mode a
// remaining event means the log is corrupt or incomplete; in degraded
// mode stuck timestamp counters are fast-forwarded over the missing
// slots (smallest gap first) until the streams drain. A second Finish
// returns ErrDoubleFinish.
func (m *Merger) Finish(fn func(trace.Event) error) error {
	if m.finished {
		return ErrDoubleFinish
	}
	m.finished = true
	for {
		if err := m.Pump(fn); err != nil {
			return err
		}
		if m.remaining == 0 {
			return nil
		}
		if m.deg == nil {
			return m.stuckError()
		}
		// Every pending stream head is a sync event waiting on a future
		// timestamp (stale and corrupt heads were delivered in the
		// drain). The events that would fill the missing slots are gone —
		// fast-forward the counter with the smallest gap, which weakens
		// exactly the orderings that depended on the lost events and
		// nothing else.
		var best *trace.Event
		bestGap := uint64(0)
		for _, q := range m.queues {
			if q.n == 0 {
				continue
			}
			e := &q.head[q.pos]
			gap := e.TS - m.next[e.Counter]
			if best == nil || gap < bestGap {
				best, bestGap = e, gap
			}
		}
		if best == nil {
			// remaining > 0 guarantees a pending stream; defensive.
			return fmt.Errorf("hb: degraded replay stuck with no pending events")
		}
		m.markDegraded()
		m.deg.Skips++
		m.deg.SlotsSkipped += bestGap
		m.skips.Add(bestGap)
		m.next[best.Counter] = best.TS
	}
}

func (m *Merger) stuckError() error {
	for _, q := range m.queues {
		if q.n > 0 {
			e := &q.head[q.pos]
			return fmt.Errorf("hb: replay stuck: thread %d waiting for counter %d ts %d (have %d); log is corrupt or incomplete",
				q.tid, e.Counter, e.TS, m.next[e.Counter])
		}
	}
	return fmt.Errorf("hb: replay stuck with no pending events")
}
