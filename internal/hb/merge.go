package hb

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

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
// Events are delivered in runs: slices of one thread's pending events,
// handed to the consumer without a copy (see Pump). Cutting the order
// into runs does not change it; a run saves the per-event call and copy.
//
// The merge is defined in rounds over the threads in ascending tid
// order, but a round touches only the queues that can deliver. A queue
// whose head sync event waits on (counter c, timestamp T) parks on c's
// wait list; the delivery that moves c's next timestamp to T wakes it
// into a ready set over the queue positions, and so does an Add to an
// empty queue. A delivered sync event then costs at most a heap
// operation and a round a pass over the bitset's words, not a scan of
// every thread.
//
// The Merger owns its event storage: Add copies each chunk into the
// thread's queue of fixed-size blocks, and a block whose events have all
// been delivered goes onto a free list that any thread's next Add
// reuses. The writer flushes a thread's buffer after every fork (see
// trace.ThreadWriter.Append), so on a full log the backlog stays near a
// chunk per thread; a log whose first events wait on a chunk flushed at
// exit still costs one copy per event and no slice regrowth. The free
// list holds at most mergeFreeMax blocks, so delivered events pin a
// fixed amount of memory whatever the thread count.
type Merger struct {
	deg       *Degradation
	onDegrade func()
	degraded  bool

	queues []*mergeQueue // ascending tid
	byTID  map[int32]*mergeQueue
	next   [trace.NumCounters]uint64
	free   []*mergeBlock // delivered blocks, ready for reuse; at most mergeFreeMax

	// ready is a bitset over queue positions: the queues Pump visits.
	// Every other non-empty queue is parked in waits (a min-heap by
	// timestamp per counter) or, in strict mode, waits on a slot that
	// already passed and can never deliver.
	ready    []uint64
	waits    [trace.NumCounters][]waiter
	nonEmpty int // queues holding events

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

// mergeFreeMax caps the free list. Steady streaming recycles a block
// per thread that crosses a block boundary between two Adds, so with a
// handful of threads every block is reused; at hundreds of threads the
// cap keeps delivered blocks (24 KiB each) from piling up on the list
// instead of going back to the collector.
const mergeFreeMax = 8

// mergeBlock is one fixed-size segment of a thread's reorder buffer. It
// holds no pointers, so the collector never scans the backlog.
type mergeBlock [mergeBlockLen]trace.Event

// mergeQueue is one thread's reorder buffer: a FIFO of blocks holding
// the events that have arrived but not yet been delivered. The pending
// events run from head[pos] (head is blocks[h]) to the last block's
// [end-1]; n counts them.
type mergeQueue struct {
	tid         int32
	idx         int // position in Merger.queues
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
	// tid order each round, matching the original batch replay. The
	// ready bits of the queues after the new one shift up with them.
	i := len(m.queues)
	for i > 0 && m.queues[i-1].tid > tid {
		i--
	}
	m.queues = slices.Insert(m.queues, i, q)
	for j := i; j < len(m.queues); j++ {
		m.queues[j].idx = j
	}
	if len(m.queues) > 64*len(m.ready) {
		m.ready = append(m.ready, 0)
	}
	w := i >> 6
	for j := len(m.ready) - 1; j > w; j-- {
		m.ready[j] = m.ready[j]<<1 | m.ready[j-1]>>63
	}
	low := uint64(1)<<(i&63) - 1
	m.ready[w] = m.ready[w]&low | (m.ready[w]&^low)<<1
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
	if q.n == 0 && len(evs) > 0 {
		// A new head: let the next round look at it.
		m.nonEmpty++
		m.setReady(q.idx)
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
// becomes the head, or the queue empties. The free list keeps up to
// mergeFreeMax spare blocks; the rest of a drained backlog goes to the
// collector instead of staying pinned.
func (m *Merger) release(q *mergeQueue) {
	if len(m.free) < mergeFreeMax {
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

// syncClass is how the merge treats a sync event it reaches.
type syncClass uint8

const (
	syncNone  syncClass = iota // not a sync event
	syncReady                  // its timestamp is the next on its counter
	// syncStale: its slot already passed, the signature of a duplicated
	// or resurrected event. Degraded mode delivers it without ordering.
	syncStale
	// syncBad: a corrupt, out-of-range counter id. Degraded mode
	// delivers it unordered; strict mode fails.
	syncBad
	syncBlocked // waits on a later timestamp
)

func (m *Merger) classify(e *trace.Event) syncClass {
	switch {
	case int(e.Counter) >= trace.NumCounters:
		return syncBad
	case m.next[e.Counter] == e.TS:
		return syncReady
	case m.deg != nil && e.TS < m.next[e.Counter]:
		return syncStale
	}
	return syncBlocked
}

// Pump delivers every event that is ready, in rounds over the threads in
// ascending tid order, draining each greedily until it blocks on a
// timestamp or runs out of buffered events. It returns when a full round
// makes no progress (more input, a Finish, or nothing at all may be
// needed) or when fn fails.
//
// A round visits only the ready queues, smallest position first. A
// queue woken behind the round's cursor is drained in the next round,
// one woken ahead of it in this one: the order a round over every
// thread would deliver. A stall is a thread passed blocked in a round;
// every queue still holding events at a round's end was passed blocked
// exactly once in it, so the round adds that many.
//
// fn receives the events as runs: a run is a slice of one thread's
// head block holding a maximal stretch of ready events, of which at most
// one is a sync event, and then only as the last element. The slice
// belongs to the merger and is valid only during the call. fn returns
// how many events it consumed: len(run) on success, or with an error the
// number, from 0 to len(run), to count as delivered (the failing event
// included, as a per-event consumer sees it). The merger commits exactly
// that many, so Delivered, Backlog, Stalls and the degradation counters
// describe the events handed over and no more. In degraded mode a run
// never starts with a weakened ordering still to be announced: OnDegrade
// fires between runs, just before the run whose first event is the
// first weakened one.
func (m *Merger) Pump(fn func(run []trace.Event) (int, error)) error {
	if m.remaining == 0 {
		return nil
	}
	m.rounds.Inc()
	progressed := false
	for cursor := 0; ; {
		p := m.nextReady(cursor)
		if p < 0 {
			m.stall(m.nonEmpty)
			if !progressed {
				return nil
			}
			m.rounds.Inc()
			cursor, progressed = 0, false
			continue
		}
		m.ready[p>>6] &^= 1 << (p & 63)
		cursor = p + 1
		q := m.queues[p]
		// Drain this thread greedily until it blocks on a timestamp.
		for q.n > 0 {
			head := &q.head[q.pos]
			cls := syncNone
			if head.Kind.IsSync() {
				if cls = m.classify(head); cls == syncBlocked {
					m.park(q, head)
					break
				}
				if cls == syncBad && m.deg == nil {
					m.interrupt(p)
					return fmt.Errorf("hb: thread %d event %d: bad counter %d",
						q.tid, q.taken, head.Counter)
				}
			}
			run, cls := m.nextRun(q, cls)
			n, err := fn(run)
			m.commit(q, run, n, cls)
			if err != nil {
				m.interrupt(p)
				return err
			}
			progressed = true
		}
	}
}

// interrupt ends a round cut short by an error at position p. The
// queues before p were passed, each one still holding events blocked
// once; the queue at p stays ready so the next round visits it again.
func (m *Merger) interrupt(p int) {
	if m.queues[p].n > 0 {
		m.setReady(p)
	}
	n := 0
	for _, q := range m.queues[:p] {
		if q.n > 0 {
			n++
		}
	}
	m.stall(n)
}

func (m *Merger) stall(n int) {
	m.nStalls += uint64(n)
	m.stalls.Add(uint64(n))
}

func (m *Merger) setReady(p int) { m.ready[p>>6] |= 1 << (p & 63) }

// nextReady returns the smallest ready position at or after p, or -1.
func (m *Merger) nextReady(p int) int {
	w := p >> 6
	if w >= len(m.ready) {
		return -1
	}
	for x := m.ready[w] &^ (1<<(p&63) - 1); ; x = m.ready[w] {
		if x != 0 {
			return w<<6 + bits.TrailingZeros64(x)
		}
		if w++; w == len(m.ready) {
			return -1
		}
	}
}

// waiter is a queue parked until its head's counter reaches ts.
type waiter struct {
	ts uint64
	q  *mergeQueue
}

// park puts q, whose head sync event e is blocked, on e's counter's
// wait list. In strict mode a head whose slot already passed can never
// become ready, so it parks nowhere.
func (m *Merger) park(q *mergeQueue, e *trace.Event) {
	if e.TS < m.next[e.Counter] {
		return
	}
	h := append(m.waits[e.Counter], waiter{e.TS, q})
	for i := len(h) - 1; i > 0; {
		up := (i - 1) / 2
		if h[up].ts <= h[i].ts {
			break
		}
		h[up], h[i] = h[i], h[up]
		i = up
	}
	m.waits[e.Counter] = h
}

// wake moves every queue parked on counter c at a timestamp the
// counter has reached into the ready set. A bump, like Finish's
// fast-forward to the smallest gap, reaches one new timestamp; more
// than one queue waits on it only in a damaged log.
func (m *Merger) wake(c uint8) {
	h := m.waits[c]
	for len(h) > 0 && h[0].ts <= m.next[c] {
		m.setReady(h[0].q.idx)
		last := len(h) - 1
		h[0], h[last] = h[last], waiter{}
		h = h[:last]
		for i := 0; ; {
			j := 2*i + 1
			if j >= len(h) {
				break
			}
			if j+1 < len(h) && h[j+1].ts < h[j].ts {
				j++
			}
			if h[i].ts <= h[j].ts {
				break
			}
			h[i], h[j] = h[j], h[i]
			i = j
		}
	}
	m.waits[c] = h
}

// nextRun returns the run at q's head, whose first event has class
// cls and is deliverable, and the class of the run's last event
// (syncNone when the run holds no sync event). It commits nothing but
// the OnDegrade transition.
func (m *Merger) nextRun(q *mergeQueue, cls syncClass) ([]trace.Event, syncClass) {
	pend := q.head[q.pos:min(q.pos+q.n, mergeBlockLen)]
	// suspect is the run index of the first event at or past a salvage
	// loss (len(pend) for none).
	suspect := len(pend)
	if m.deg != nil && q.hasSuspect {
		if q.suspectFrom <= q.taken {
			suspect = 0
		} else if d := q.suspectFrom - q.taken; d < uint64(len(pend)) {
			suspect = int(d)
		}
	}
	if cls == syncStale || cls == syncBad || suspect == 0 {
		m.markDegraded()
	}
	if cls != syncNone {
		return pend[:1], cls
	}
	// Before the merge degrades, a run stops short of the first weakened
	// event so OnDegrade can fire between runs.
	lim := len(pend)
	if !m.degraded {
		lim = suspect
	}
	for i := 1; i < lim; i++ {
		e := &pend[i]
		if !e.Kind.IsSync() {
			continue
		}
		if cls := m.classify(e); cls == syncReady || m.degraded && (cls == syncStale || cls == syncBad) {
			return pend[:i+1], cls
		}
		// Blocked, a strict error, or the first weakened ordering: the
		// next run starts here.
		return pend[:i], syncNone
	}
	return pend[:lim], syncNone
}

// commit accounts the first n events of run, q's head run, as
// delivered. The run's closing sync event (class cls) takes effect only
// when the consumer took the whole run.
func (m *Merger) commit(q *mergeQueue, run []trace.Event, n int, cls syncClass) {
	if n == len(run) {
		switch cls {
		case syncReady:
			c := run[n-1].Counter
			m.next[c]++
			if h := m.waits[c]; len(h) > 0 && h[0].ts <= m.next[c] {
				m.wake(c)
			}
		case syncStale:
			m.deg.StaleEvents++
		case syncBad:
			m.deg.BadCounters++
		}
	}
	if m.deg != nil && q.hasSuspect {
		if from, end := max(q.taken, q.suspectFrom), q.taken+uint64(n); end > from {
			m.deg.SuspectEvents += int(end - from)
		}
	}
	q.taken += uint64(n)
	q.n -= n
	m.remaining -= n
	m.delivered += uint64(n)
	if q.n == 0 && n > 0 {
		m.nonEmpty--
	}
	if q.pos += n; q.pos == mergeBlockLen || q.n == 0 {
		// The head block is spent (or the queue drained): recycle it so
		// the next Add reuses it.
		m.release(q)
	}
}

// Finish drains everything left after the final Add, delivering runs
// to fn as Pump does. In strict mode a remaining event means the log is
// corrupt or incomplete; in degraded mode stuck timestamp counters are
// fast-forwarded over the missing slots (smallest gap first) until the
// streams drain. A second Finish returns ErrDoubleFinish.
func (m *Merger) Finish(fn func(run []trace.Event) (int, error)) error {
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
		m.wake(best.Counter)
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
