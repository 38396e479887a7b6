package hb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"literace/internal/lir"
	"literace/internal/obs"
	"literace/internal/trace"
)

// This file pins the Merger's delivery order, statistics and errors to
// the flat-slice merge it replaced (flatMerger below, kept verbatim as
// the oracle apart from its names): one growing []trace.Event per thread
// with a read position, trimmed once fully delivered. Every parity test
// elsewhere replays both sides through the same Merger, so only a
// comparison against an independent copy can see an order change. The
// oracle delivers one event per call and the Merger delivers runs; the
// consumer flattens both, and runShapeErr checks every run.

// flatMerger is the oracle: the merge engine as it was before the
// Merger moved to recycled fixed-size blocks.
type flatMerger struct {
	deg       *Degradation
	onDegrade func()
	degraded  bool

	queues []*flatQueue // ascending tid
	byTID  map[int32]*flatQueue
	next   [trace.NumCounters]uint64

	remaining  int
	backlogHWM int
	delivered  uint64
	nStalls    uint64
	finished   bool

	stalls, rounds, skips *obs.Counter
}

// flatQueue is one thread's reorder buffer: the events that have
// arrived but not yet been delivered.
type flatQueue struct {
	tid         int32
	evs         []trace.Event
	pos         int
	taken       uint64 // events already delivered and trimmed from evs
	suspectFrom uint64 // absolute per-thread index of the first suspect event
	hasSuspect  bool
}

// newFlatMerger returns an empty merge engine.
func newFlatMerger(opts MergerOptions) *flatMerger {
	m := &flatMerger{
		deg:       opts.Degraded,
		onDegrade: opts.OnDegrade,
		byTID:     make(map[int32]*flatQueue),
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

func (m *flatMerger) queue(tid int32) *flatQueue {
	q := m.byTID[tid]
	if q != nil {
		return q
	}
	q = &flatQueue{tid: tid}
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

// Add appends one chunk of a thread's stream. suspectFrom is the index
// within evs from which events follow a salvage loss (len(evs) or more
// for "none", 0 for the whole chunk); once a thread turns suspect it
// stays suspect. Adding to a finished merge returns ErrAddAfterFinish
// and buffers nothing.
func (m *flatMerger) Add(tid int32, evs []trace.Event, suspectFrom int) error {
	if m.finished {
		return ErrAddAfterFinish
	}
	q := m.queue(tid)
	if suspectFrom < len(evs) && !q.hasSuspect {
		q.hasSuspect = true
		if suspectFrom < 0 {
			suspectFrom = 0
		}
		q.suspectFrom = q.taken + uint64(len(q.evs)) + uint64(suspectFrom)
	}
	q.evs = append(q.evs, evs...)
	m.remaining += len(evs)
	if m.remaining > m.backlogHWM {
		m.backlogHWM = m.remaining
	}
	return nil
}

// Backlog returns the number of buffered, not-yet-delivered events.
func (m *flatMerger) Backlog() int { return m.remaining }

// BacklogHighWater returns the largest backlog ever observed — the peak
// number of events buffered waiting for an earlier timestamp. A high
// watermark far above the steady-state backlog marks a reordering storm
// (chunks arriving badly out of order) even after the merge drains.
func (m *flatMerger) BacklogHighWater() int { return m.backlogHWM }

// Delivered returns the number of events delivered so far.
func (m *flatMerger) Delivered() uint64 { return m.delivered }

// Stalls returns the number of ready-queue stalls so far: times a
// thread's stream blocked on a timestamp that was not yet the next
// expected value for its counter (the reorder cost of merging
// out-of-order chunk arrivals).
func (m *flatMerger) Stalls() uint64 { return m.nStalls }

func (m *flatMerger) markDegraded() {
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
func (m *flatMerger) Pump(fn func(trace.Event) error) error {
	if m.remaining == 0 {
		return nil
	}
	for {
		progressed := false
		m.rounds.Inc()
		for _, q := range m.queues {
			// Drain this thread greedily until it blocks on a timestamp.
			blocked := false
			for !blocked && q.pos < len(q.evs) {
				e := q.evs[q.pos]
				if e.Kind.IsSync() {
					switch {
					case int(e.Counter) >= trace.NumCounters:
						if m.deg == nil {
							return fmt.Errorf("hb: thread %d event %d: bad counter %d",
								q.tid, q.taken+uint64(q.pos), e.Counter)
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
						blocked = true
						continue
					}
				}
				if m.deg != nil && q.hasSuspect && q.taken+uint64(q.pos) >= q.suspectFrom {
					m.deg.SuspectEvents++
					m.markDegraded()
				}
				q.pos++
				m.remaining--
				m.delivered++
				progressed = true
				if err := fn(e); err != nil {
					return err
				}
			}
			// Trim the delivered prefix so a long-running stream does not
			// hold every past event (the capacity stays warm for the next
			// chunk).
			if q.pos > 0 && q.pos == len(q.evs) {
				q.taken += uint64(q.pos)
				q.evs = q.evs[:0]
				q.pos = 0
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
func (m *flatMerger) Finish(fn func(trace.Event) error) error {
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
		best := (*flatQueue)(nil)
		bestGap := uint64(0)
		for _, q := range m.queues {
			if q.pos >= len(q.evs) {
				continue
			}
			e := q.evs[q.pos]
			gap := e.TS - m.next[e.Counter]
			if best == nil || gap < bestGap {
				best, bestGap = q, gap
			}
		}
		if best == nil {
			// remaining > 0 guarantees a pending stream; defensive.
			return fmt.Errorf("hb: degraded replay stuck with no pending events")
		}
		e := best.evs[best.pos]
		m.markDegraded()
		m.deg.Skips++
		m.deg.SlotsSkipped += bestGap
		m.skips.Add(bestGap)
		m.next[e.Counter] = e.TS
	}
}

func (m *flatMerger) stuckError() error {
	for _, q := range m.queues {
		if q.pos < len(q.evs) {
			e := q.evs[q.pos]
			return fmt.Errorf("hb: replay stuck: thread %d waiting for counter %d ts %d (have %d); log is corrupt or incomplete",
				q.tid, e.Counter, e.TS, m.next[e.Counter])
		}
	}
	return fmt.Errorf("hb: replay stuck with no pending events")
}

// mergeChunk is one Add in a scripted merge session.
type mergeChunk struct {
	tid         int32
	evs         []trace.Event
	suspectFrom int
}

// mergeCase is a scripted merge session: the chunks in arrival order
// (each followed by a Pump), then Finish.
type mergeCase struct {
	chunks   []mergeChunk
	degraded bool
	failAt   int // the delivery (1-based) at which fn fails; 0 never
}

// mergeStats is a merger's observable state after one call.
type mergeStats struct {
	Err                  string
	Stalls, Delivered    uint64
	Backlog, HighWater   int
	Rounds, Skips, Stall uint64 // hb.replay_rounds, hb.degraded_skips, hb.replay_stalls
}

// mergeRun is everything a scripted session observed.
type mergeRun struct {
	Events    []trace.Event
	DegradeAt []int // len(Events) and Delivered() each time OnDegrade fired
	Steps     []mergeStats
	Deg       Degradation
}

// merger is the surface flatMerger (through flatRuns) and Merger share.
type merger interface {
	Add(tid int32, evs []trace.Event, suspectFrom int) error
	Pump(fn func(run []trace.Event) (int, error)) error
	Finish(fn func(run []trace.Event) (int, error)) error
	Stalls() uint64
	Delivered() uint64
	Backlog() int
	BacklogHighWater() int
}

// flatRuns hands the oracle's per-event deliveries to a run consumer
// as runs of one event.
type flatRuns struct{ *flatMerger }

func (f flatRuns) Pump(fn func(run []trace.Event) (int, error)) error {
	return f.flatMerger.Pump(func(e trace.Event) error {
		_, err := fn([]trace.Event{e})
		return err
	})
}

func (f flatRuns) Finish(fn func(run []trace.Event) (int, error)) error {
	return f.flatMerger.Finish(func(e trace.Event) error {
		_, err := fn([]trace.Event{e})
		return err
	})
}

var errMergeFail = errors.New("consumer failed")

// runShapeErr checks one run the block Merger hands its consumer: a
// slice of the head block of one thread's queue, starting at the
// queue's read position, holding at most one sync event and that one
// last, and maximal: a run that ends on a memory event short of the
// block and the queue ends just before a sync event or the first event
// past a salvage loss. It returns "" when the run is well formed.
func runShapeErr(m *Merger, run []trace.Event) string {
	if len(run) == 0 {
		return "empty run"
	}
	tid := run[0].TID
	q := m.byTID[tid]
	if q == nil || q.head == nil {
		return fmt.Sprintf("run of thread %d has no queue", tid)
	}
	if &run[0] != &q.head[q.pos] || q.pos+len(run) > mergeBlockLen || len(run) > q.n {
		return fmt.Sprintf("thread %d run of %d events at block position %d is not a slice of the head block", tid, len(run), q.pos)
	}
	for i, e := range run {
		if e.TID != tid {
			return fmt.Sprintf("run mixes threads %d and %d", tid, e.TID)
		}
		if e.Kind.IsSync() && i != len(run)-1 {
			return fmt.Sprintf("thread %d run of %d events has a sync event at %d", tid, len(run), i)
		}
	}
	end := q.pos + len(run)
	if !run[len(run)-1].Kind.IsSync() && end < mergeBlockLen && len(run) < q.n &&
		!q.head[end].Kind.IsSync() && !(q.hasSuspect && q.taken+uint64(len(run)) == q.suspectFrom) {
		return fmt.Sprintf("thread %d run of %d events stops before a ready memory event", tid, len(run))
	}
	return ""
}

func runMergeCase(c mergeCase, mk func(MergerOptions) merger) (mergeRun, []string) {
	var run mergeRun
	var shapeErrs []string
	reg := obs.New()
	var deg *Degradation
	if c.degraded {
		deg = &Degradation{}
	}
	var m merger
	inRun := false
	m = mk(MergerOptions{Obs: reg, Degraded: deg, OnDegrade: func() {
		if inRun {
			shapeErrs = append(shapeErrs, fmt.Sprintf("OnDegrade fired inside a run at event %d", len(run.Events)))
		}
		run.DegradeAt = append(run.DegradeAt, len(run.Events), int(m.Delivered()))
	}})
	fn := func(evs []trace.Event) (int, error) {
		if bm, ok := m.(*Merger); ok {
			if e := runShapeErr(bm, evs); e != "" {
				shapeErrs = append(shapeErrs, e)
			}
		}
		inRun = true
		defer func() { inRun = false }()
		for i, e := range evs {
			run.Events = append(run.Events, e)
			if len(run.Events) == c.failAt {
				return i + 1, errMergeFail
			}
		}
		return len(evs), nil
	}
	step := func(err error) {
		s := mergeStats{
			Stalls: m.Stalls(), Delivered: m.Delivered(),
			Backlog: m.Backlog(), HighWater: m.BacklogHighWater(),
			Rounds: reg.Counter("hb.replay_rounds").Value(),
			Skips:  reg.Counter("hb.degraded_skips").Value(),
			Stall:  reg.Counter("hb.replay_stalls").Value(),
		}
		if err != nil {
			s.Err = err.Error()
		}
		run.Steps = append(run.Steps, s)
	}
	for _, ch := range c.chunks {
		// The merger must not retain the caller's slice: scribble over
		// it once Add returns.
		buf := append([]trace.Event(nil), ch.evs...)
		err := m.Add(ch.tid, buf, ch.suspectFrom)
		for i := range buf {
			buf[i] = trace.Event{Kind: trace.KindAcquire, TS: 1 << 40}
		}
		step(err)
		step(m.Pump(fn))
	}
	step(m.Finish(fn))
	step(m.Finish(fn))
	if deg != nil {
		run.Deg = *deg
	}
	return run, shapeErrs
}

func newBlockMerger(o MergerOptions) merger { return NewMerger(o) }
func newFlatOracle(o MergerOptions) merger  { return flatRuns{newFlatMerger(o)} }

// checkMergeOrder runs c through both mergers and requires identical
// observations.
func checkMergeOrder(t *testing.T, name string, c mergeCase) mergeRun {
	t.Helper()
	want, _ := runMergeCase(c, newFlatOracle)
	got, shapeErrs := runMergeCase(c, newBlockMerger)
	if len(shapeErrs) > 0 {
		t.Fatalf("%s: %d malformed runs, first: %s", name, len(shapeErrs), shapeErrs[0])
	}
	if !reflect.DeepEqual(got.Events, want.Events) {
		n := min(len(got.Events), len(want.Events))
		i := 0
		for i < n && got.Events[i] == want.Events[i] {
			i++
		}
		t.Fatalf("%s: delivery differs at event %d of %d/%d", name, i, len(got.Events), len(want.Events))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: merge state differs:\n got: %+v %+v %v\nwant: %+v %+v %v", name,
			got.Steps, got.Deg, got.DegradeAt, want.Steps, want.Deg, want.DegradeAt)
	}
	return got
}

// mergeShape parameterizes genMergeCase.
type mergeShape struct {
	threads   int  // number of threads
	events    int  // events in the whole log
	maxChunk  int  // largest chunk
	syncPct   int  // share of sync events
	counters  int  // distinct timestamp counters in use
	lateFirst bool // the first thread's chunks arrive after every other's
	lag       int  // each of the first thread's chunks arrives this many chunks late
	forks     int  // sync events the first thread logs before anything else
	degraded  bool
	drop      int // chunks dropped (timestamp gaps)
	dup       int // chunks delivered twice (stale events)
	forge     int // chunks copied into another thread's stream: two queues wait on one (counter, ts)
	badCtr    int // sync events given an out-of-range counter
	suspect   int // chunks flagged suspect from a random index
	failAt    int
}

// genMergeCase builds a log from a legal interleaving (dense per-counter
// timestamps), cuts each thread's stream into chunks, and interleaves
// the chunks in a random arrival order that keeps each thread's chunks
// in sequence; then it applies the shape's damage.
func genMergeCase(r *rand.Rand, s mergeShape) mergeCase {
	tids := r.Perm(s.threads + 4)[:s.threads]
	streams := make([][]trace.Event, s.threads)
	var next [trace.NumCounters]uint64
	for i := range next {
		next[i] = 1
	}
	syncEv := func(tid int32) trace.Event {
		c := uint8(r.Intn(max(s.counters, 1)))
		e := trace.Event{
			Kind: []trace.Kind{trace.KindAcquire, trace.KindRelease, trace.KindAcqRel}[r.Intn(3)],
			TID:  tid, Addr: 0x1000 + uint64(c), Counter: c, TS: next[c],
		}
		next[c]++
		return e
	}
	first := int32(tids[0])
	for i := 0; i < s.forks; i++ {
		streams[0] = append(streams[0], syncEv(first))
	}
	for i := 0; i < s.events; i++ {
		k := r.Intn(s.threads)
		tid := int32(tids[k])
		if r.Intn(100) < s.syncPct {
			streams[k] = append(streams[k], syncEv(tid))
			continue
		}
		kind := trace.KindRead
		if r.Intn(2) == 0 {
			kind = trace.KindWrite
		}
		streams[k] = append(streams[k], trace.Event{Kind: kind, TID: tid, Addr: uint64(r.Intn(64)), Mask: 1, PC: lirPC(i)})
	}
	// Cut each stream into chunks.
	per := make([][]mergeChunk, s.threads)
	for k, evs := range streams {
		for len(evs) > 0 {
			n := 1 + r.Intn(max(s.maxChunk, 1))
			n = min(n, len(evs))
			per[k] = append(per[k], mergeChunk{tid: int32(tids[k]), evs: evs[:n:n], suspectFrom: n})
			evs = evs[n:]
		}
		if len(per[k]) == 0 {
			per[k] = append(per[k], mergeChunk{tid: int32(tids[k])})
		}
	}
	var c mergeCase
	late := per[0]
	if s.lateFirst {
		per[0] = nil
	}
	for {
		var live []int
		for k := range per {
			if len(per[k]) > 0 {
				live = append(live, k)
			}
		}
		if len(live) == 0 {
			break
		}
		k := live[r.Intn(len(live))]
		c.chunks = append(c.chunks, per[k][0])
		per[k] = per[k][1:]
	}
	if s.lateFirst {
		c.chunks = append(c.chunks, late...)
	}
	if s.lag > 0 {
		// Hold each of the first thread's chunks back until lag other
		// chunks have gone by: the other queues keep a backlog of
		// several blocks that drains from the front while it grows at
		// the back.
		var order, held []mergeChunk
		var due []int
		for _, ch := range c.chunks {
			if ch.tid == first {
				held, due = append(held, ch), append(due, len(order)+s.lag)
				continue
			}
			order = append(order, ch)
			for len(held) > 0 && due[0] <= len(order) {
				order, held, due = append(order, held[0]), held[1:], due[1:]
			}
		}
		c.chunks = append(order, held...)
	}
	// Damage.
	for i := 0; i < s.dup && len(c.chunks) > 0; i++ {
		j := r.Intn(len(c.chunks))
		at := j + r.Intn(len(c.chunks)-j+1)
		c.chunks = append(c.chunks[:at], append([]mergeChunk{c.chunks[j]}, c.chunks[at:]...)...)
	}
	for i := 0; i < s.forge && len(c.chunks) > 0 && s.threads > 1; i++ {
		j := r.Intn(len(c.chunks))
		tid := int32(tids[r.Intn(s.threads)])
		for tid == c.chunks[j].tid {
			tid = int32(tids[r.Intn(s.threads)])
		}
		evs := append([]trace.Event(nil), c.chunks[j].evs...)
		for k := range evs {
			evs[k].TID = tid
		}
		at := r.Intn(len(c.chunks) + 1)
		c.chunks = append(c.chunks[:at], append([]mergeChunk{{tid: tid, evs: evs, suspectFrom: len(evs)}}, c.chunks[at:]...)...)
	}
	for i := 0; i < s.drop && len(c.chunks) > 1; i++ {
		j := r.Intn(len(c.chunks))
		c.chunks = append(c.chunks[:j], c.chunks[j+1:]...)
	}
	for i := 0; i < s.badCtr && len(c.chunks) > 0; i++ {
		ch := &c.chunks[r.Intn(len(c.chunks))]
		evs := append([]trace.Event(nil), ch.evs...)
		for j := range evs {
			if evs[j].Kind.IsSync() {
				evs[j].Counter = uint8(trace.NumCounters + r.Intn(256-trace.NumCounters))
				break
			}
		}
		ch.evs = evs
	}
	for i := 0; i < s.suspect && len(c.chunks) > 0; i++ {
		ch := &c.chunks[r.Intn(len(c.chunks))]
		ch.suspectFrom = r.Intn(len(ch.evs)+2) - 1
	}
	c.degraded = s.degraded
	c.failAt = s.failAt
	return c
}

func lirPC(i int) lir.PC { return lir.PC{Func: int32(i % 7), Index: int32(i)} }

// randomShape derives a shape from a seed: small logs with every kind of
// damage in either mode, now and then a backlog spanning many blocks,
// and now and then up to 300 threads, so the ready set spans several
// words.
func randomShape(r *rand.Rand) mergeShape {
	threads := 1 + r.Intn(8)
	if r.Intn(4) == 0 {
		threads = 9 + r.Intn(292)
	}
	s := mergeShape{
		threads:  threads,
		events:   r.Intn(3000),
		maxChunk: 1 + r.Intn(1200),
		syncPct:  r.Intn(60),
		counters: 1 + r.Intn(trace.NumCounters),
		degraded: r.Intn(2) == 0,
	}
	switch r.Intn(4) {
	case 0:
		s.lateFirst, s.forks = true, 1+r.Intn(8)
	case 1:
		s.lag = 1 + r.Intn(20)
	}
	if r.Intn(2) == 0 {
		s.drop, s.dup, s.forge, s.badCtr, s.suspect = r.Intn(3), r.Intn(3), r.Intn(3), r.Intn(2), r.Intn(3)
	}
	if r.Intn(8) == 0 {
		s.failAt = 1 + r.Intn(s.events+s.forks+1)
	}
	return s
}

// TestMergerOrderBlockedHeads is the full-log shape: the first thread's
// only chunk, holding the forks every other thread's first sync waits
// on, arrives last, so every other queue holds its whole stream across
// many blocks behind a blocked head before anything drains.
func TestMergerOrderBlockedHeads(t *testing.T) {
	for _, degraded := range []bool{false, true} {
		for seed := int64(1); seed <= 4; seed++ {
			r := rand.New(rand.NewSource(seed))
			// One counter: the late thread's forks take its first
			// timestamps, so no other thread's sync can deliver first.
			s := mergeShape{threads: 4, events: 8000, maxChunk: 700, syncPct: 10, counters: 1,
				lateFirst: true, forks: 4, degraded: degraded}
			c := genMergeCase(r, s)
			run := checkMergeOrder(t, fmt.Sprintf("degraded=%v seed %d", degraded, seed), c)
			hwm := run.Steps[len(run.Steps)-1].HighWater
			if hwm < 3*mergeBlockLen {
				t.Fatalf("seed %d: backlog peaked at %d events, want a head blocked across >= 3 blocks", seed, hwm)
			}
		}
	}
}

// TestMergerOrderSeeded runs a fixed spread of shapes: clean logs in both
// modes, chunks larger and smaller than a block, and each kind of damage
// alone, including the strict-mode errors.
func TestMergerOrderSeeded(t *testing.T) {
	base := mergeShape{threads: 5, events: 2500, maxChunk: 300, syncPct: 25, counters: 4}
	shapes := map[string]func(*mergeShape){
		"clean strict":   func(*mergeShape) {},
		"clean degraded": func(s *mergeShape) { s.degraded = true },
		"big chunks":     func(s *mergeShape) { s.maxChunk = 1500 },
		"one event":      func(s *mergeShape) { s.maxChunk = 1 },
		"one thread":     func(s *mergeShape) { s.threads = 1 },
		"many counters":  func(s *mergeShape) { s.counters = trace.NumCounters },
		"late first":     func(s *mergeShape) { s.lateFirst, s.forks = true, 3 },
		"lagging first":  func(s *mergeShape) { s.lag, s.events, s.maxChunk, s.counters = 12, 12000, 400, 1 },
		"drop degraded":  func(s *mergeShape) { s.degraded, s.drop = true, 2 },
		"dup degraded":   func(s *mergeShape) { s.degraded, s.dup = true, 2 },
		"bad counter":    func(s *mergeShape) { s.degraded, s.badCtr = true, 1 },
		"suspect":        func(s *mergeShape) { s.degraded, s.suspect = true, 3 },
		"all damage":     func(s *mergeShape) { s.degraded, s.drop, s.dup, s.badCtr, s.suspect = true, 2, 2, 1, 2 },
		"drop strict":    func(s *mergeShape) { s.drop = 2 },
		"dup strict":     func(s *mergeShape) { s.dup = 2 },
		"bad ctr strict": func(s *mergeShape) { s.badCtr = 1 },
		"consumer fails": func(s *mergeShape) { s.failAt = 700 },
		"forge degraded": func(s *mergeShape) { s.degraded, s.forge = true, 2 },
		"forge strict":   func(s *mergeShape) { s.forge = 2 },
		// Queue positions across ready-set words: tids arrive out of
		// order, so queues are inserted mid-list and bits shift across
		// word boundaries.
		"63 threads":  func(s *mergeShape) { s.threads, s.events = 63, 6000 },
		"64 threads":  func(s *mergeShape) { s.threads, s.events = 64, 6000 },
		"65 threads":  func(s *mergeShape) { s.threads, s.events, s.lateFirst, s.forks = 65, 6000, true, 64 },
		"130 threads": func(s *mergeShape) { s.threads, s.events, s.counters = 130, 9000, 2 },
		"300 threads": func(s *mergeShape) { s.threads, s.events, s.maxChunk = 300, 12000, 40 },
		"300 threads late first": func(s *mergeShape) {
			s.threads, s.events, s.counters, s.lateFirst, s.forks = 300, 12000, 1, true, 299
		},
		"65 threads dup forge degraded": func(s *mergeShape) {
			s.threads, s.events, s.degraded, s.dup, s.forge = 65, 6000, true, 3, 3
		},
		"130 threads dup forge strict": func(s *mergeShape) { s.threads, s.events, s.dup, s.forge = 130, 9000, 2, 2 },
		"300 threads all damage": func(s *mergeShape) {
			s.threads, s.events, s.degraded = 300, 12000, true
			s.drop, s.dup, s.forge, s.badCtr, s.suspect = 3, 3, 3, 1, 3
		},
		"130 threads consumer fails": func(s *mergeShape) { s.threads, s.events, s.failAt = 130, 9000, 5000 },
		// A strict error leaves queues ready while later chunks insert
		// new tids below them.
		"300 threads bad ctr strict": func(s *mergeShape) { s.threads, s.events, s.syncPct, s.badCtr = 300, 2000, 40, 2 },
	}
	for name, mut := range shapes {
		for seed := int64(1); seed <= 6; seed++ {
			s := base
			mut(&s)
			checkMergeOrder(t, fmt.Sprintf("%s seed %d", name, seed), genMergeCase(rand.New(rand.NewSource(seed)), s))
		}
	}
}

// TestMergerOrderStrictErrors pins that the strict-mode errors are
// reached (not just equal on both sides) and carry the oracle's text.
func TestMergerOrderStrictErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*mergeShape)
		want string
	}{
		{"bad counter", func(s *mergeShape) { s.badCtr = 1 }, "bad counter"},
		{"stuck", func(s *mergeShape) { s.drop = 1 }, "replay stuck"},
	} {
		found := false
		for seed := int64(1); seed <= 20 && !found; seed++ {
			s := mergeShape{threads: 3, events: 1500, maxChunk: 200, syncPct: 40, counters: 2}
			tc.mut(&s)
			run := checkMergeOrder(t, fmt.Sprintf("%s seed %d", tc.name, seed), genMergeCase(rand.New(rand.NewSource(seed)), s))
			for _, st := range run.Steps {
				if strings.Contains(st.Err, tc.want) {
					found = true
				}
			}
		}
		if !found {
			t.Errorf("%s: no seed produced a %q error", tc.name, tc.want)
		}
	}
}

func FuzzMergerOrder(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		s := randomShape(r)
		checkMergeOrder(t, fmt.Sprintf("seed %d shape %+v", seed, s), genMergeCase(r, s))
	})
}
