package collector

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"literace"
	"literace/internal/obs/diag"
	"literace/internal/stream"
)

// sessionState is a producer session's lifecycle position.
type sessionState int

const (
	// sessActive: a connection is attached and feeding.
	sessActive sessionState = iota
	// sessParked: the connection dropped without EOF; the session holds
	// its pipeline open for the resume grace window.
	sessParked
	// sessDone: finalized; the outcome is recorded.
	sessDone
	// sessFailed: finalized with an error (not an LTRC2 stream, pipeline
	// failure, or handler panic).
	sessFailed
)

// setState moves the session to st; the caller holds mu.
func (s *session) setState(st sessionState) {
	s.state = st
	s.shown.Store(int32(st))
}

// stateNow reads the session's state without taking mu. A session only
// moves forward to a final state, so a final reading stays true.
func (s *session) stateNow() sessionState { return sessionState(s.shown.Load()) }

func (st sessionState) String() string {
	switch st {
	case sessActive:
		return "active"
	case sessParked:
		return "parked"
	case sessDone:
		return "done"
	case sessFailed:
		return "failed"
	}
	return fmt.Sprintf("state-%d", int(st))
}

// session is one producer's fault-isolated ingest state: the byte-offset
// cursor, the bounded reorder buffer, and the producer's own detection
// pipeline. All mutation happens under mu; the owning connection
// goroutine holds it across frame processing, and /fleet readers take it
// briefly for snapshots.
type session struct {
	name   string
	module string
	srv    *Server

	mu    sync.Mutex
	state sessionState
	// shown mirrors state for readers that must not wait behind frame
	// processing: Health, the session counts, and the server-wide
	// passes that run under Server.mu. setState writes both.
	shown atomic.Int32
	// gen is bumped on every attach; a connection goroutine only parks or
	// finalizes the session if its generation is still current, so a
	// takeover (producer reconnected while the old conn lingered) makes
	// the old handler exit without side effects.
	gen  int
	conn net.Conn

	// accepted is the contiguous byte offset fed to the pipeline. Frames
	// at or below it are duplicates; frames above it wait in reorder.
	accepted     uint64
	reorder      map[uint64][]byte
	reorderBytes int

	pipe *literace.StreamSession

	frames     uint64
	dupFrames  uint64
	reordered  uint64
	sheds      uint64
	shedBytes  uint64
	reconnects uint64

	// Latest telemetry frame from this producer (nil until one arrives)
	// and how many were accepted; served on /metrics as per-producer
	// labeled families and folded into the fleet time-series store.
	telemetry   *TelemetryUpdate
	telemetryAt time.Time
	telemetryN  uint64

	parkedAt time.Time
	eofAt    uint64 // offset announced by the EOF frame (0 until seen)
	sawEOF   bool

	rep    *literace.Report
	res    *stream.Result
	outErr error

	// backlog mirrors the pipeline's merge backlog after each feed, so
	// the server's SLO probe can read it without touching the pipeline
	// from another goroutine.
	backlog atomic.Int64
}

func newSession(srv *Server, name, module string) *session {
	return &session{
		name:    name,
		module:  module,
		srv:     srv,
		reorder: make(map[uint64][]byte),
		pipe: literace.NewStreamSession(srv.opts.Resolve, literace.StreamOptions{
			Obs:  srv.opts.Obs,
			Diag: srv.rec,
			Log:  srv.log,
		}),
	}
}

// attach binds a (re)connection to the session, kicking any lingering
// previous connection, and returns the resume offset and this
// connection's generation. Finalized sessions reject the attach.
func (s *session) attach(conn net.Conn) (next uint64, gen int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case sessDone, sessFailed:
		return 0, 0, fmt.Errorf("session already finalized (%s)", s.state)
	case sessActive:
		// Takeover: the producer reconnected while the old connection is
		// still attached (half-dead link, retried send). The newest
		// connection wins; closing the old one unblocks its read loop,
		// and the generation bump makes it exit without parking.
		if s.conn != nil {
			_ = s.conn.Close()
		}
		s.reconnects++
	case sessParked:
		s.setState(sessActive)
		s.reconnects++
	}
	s.conn = conn
	s.gen++
	return s.accepted, s.gen, nil
}

// current reports whether gen is still the attached generation.
func (s *session) current(gen int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen == gen && s.state == sessActive
}

// ingest places one data frame. Duplicate ranges are dropped, overlaps
// trimmed, out-of-order frames buffered up to the reorder budget, and
// overflow shed by abandoning the missing range (the salvage decoder
// heals the gap; the producer's analysis degrades, confirmed races stay
// zero-false-positive). The error is non-nil only when the stream is
// not an LTRC2 log at all — fatal for this session, invisible to every
// other.
func (s *session) ingest(off uint64, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.frames++
	end := off + uint64(len(payload))
	switch {
	case end <= s.accepted:
		s.dupFrames++
		return nil
	case off <= s.accepted:
		if off < s.accepted {
			s.dupFrames++ // retransmitted prefix trimmed off
			payload = payload[s.accepted-off:]
		}
		if err := s.feedLocked(payload); err != nil {
			return err
		}
		return s.drainLocked()
	default:
		s.reordered++
		if prev, ok := s.reorder[off]; !ok || len(payload) > len(prev) {
			if ok {
				s.reorderBytes -= len(prev)
			}
			s.reorder[off] = append([]byte(nil), payload...)
			s.reorderBytes += len(payload)
		}
		return s.shedLocked()
	}
}

// feedLocked pushes contiguous bytes into the pipeline and advances the
// cursor.
func (s *session) feedLocked(b []byte) error {
	if len(b) == 0 {
		return nil
	}
	err := s.pipe.Feed(b)
	s.accepted += uint64(len(b))
	s.backlog.Store(int64(s.pipe.Backlog()))
	return err
}

// drainLocked feeds every buffered frame the cursor has reached.
func (s *session) drainLocked() error {
	for {
		fed := false
		for off, p := range s.reorder {
			if off > s.accepted {
				continue
			}
			delete(s.reorder, off)
			s.reorderBytes -= len(p)
			fed = true
			if end := off + uint64(len(p)); end > s.accepted {
				if err := s.feedLocked(p[s.accepted-off:]); err != nil {
					return err
				}
			} else {
				s.dupFrames++
			}
		}
		if !fed {
			return nil
		}
	}
}

// shedLocked enforces the reorder budget: while over it, the cursor
// jumps to the lowest buffered offset, abandoning the missing range.
func (s *session) shedLocked() error {
	for s.reorderBytes > s.srv.maxReorder() {
		min := uint64(0)
		found := false
		for off := range s.reorder {
			if !found || off < min {
				min, found = off, true
			}
		}
		if !found {
			return nil
		}
		gap := min - s.accepted
		s.sheds++
		s.shedBytes += gap
		s.srv.rec.Anomaly(diag.AnomShed, -1, gap, s.accepted)
		s.srv.log.Warn("reorder budget exceeded; shedding",
			"producer", s.name, "gap_bytes", gap, "at", s.accepted)
		s.accepted = min
		if err := s.drainLocked(); err != nil {
			return err
		}
	}
	return nil
}

// finishEOF records the EOF frame: any still-buffered frames are force
// drained (shedding whatever gaps remain), the pipeline finishes, and
// the outcome is stored. Returns the reply for the producer.
func (s *session) finishEOF(total uint64) FinalReply {
	s.mu.Lock()
	s.sawEOF = true
	s.eofAt = total
	// A gap at EOF can never fill: jump the cursor through whatever
	// arrived so the decoder accounts the loss, then finalize.
	err := s.forceDrainLocked()
	s.mu.Unlock()
	return s.srv.finalizeSession(s, err)
}

// forceDrainLocked sheds until the reorder buffer is empty.
func (s *session) forceDrainLocked() error {
	for len(s.reorder) > 0 {
		min := uint64(0)
		found := false
		for off := range s.reorder {
			if !found || off < min {
				min, found = off, true
			}
		}
		if min > s.accepted {
			gap := min - s.accepted
			s.sheds++
			s.shedBytes += gap
			s.srv.rec.Anomaly(diag.AnomShed, -1, gap, s.accepted)
			s.accepted = min
		}
		if err := s.drainLocked(); err != nil {
			return err
		}
	}
	return nil
}

// park records a disconnect without EOF: the session waits for a resume
// until the grace window expires. Only the current generation parks.
func (s *session) park(gen int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.gen != gen || s.state != sessActive {
		return
	}
	s.setState(sessParked)
	s.parkedAt = time.Now()
	s.conn = nil
	s.srv.rec.Anomaly(diag.AnomDisconnect, -1, s.accepted, 0)
	s.srv.log.Warn("producer disconnected without EOF; parked for resume",
		"producer", s.name, "accepted_bytes", s.accepted)
}

// noteTelemetry stores the latest accepted telemetry update.
func (s *session) noteTelemetry(upd *TelemetryUpdate, at time.Time) {
	s.mu.Lock()
	s.telemetry = upd
	s.telemetryAt = at
	s.telemetryN++
	s.mu.Unlock()
}

// latestTelemetry returns the most recent update (nil if none) and the
// accepted count.
func (s *session) latestTelemetry() (*TelemetryUpdate, uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.telemetry, s.telemetryN
}

// status is the /fleet snapshot row.
func (s *session) status() ProducerStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	ps := ProducerStatus{
		Name:          s.name,
		Module:        s.module,
		State:         s.state.String(),
		AcceptedBytes: s.accepted,
		Frames:        s.frames,
		DupFrames:     s.dupFrames,
		Reordered:     s.reordered,
		Sheds:         s.sheds,
		ShedBytes:     s.shedBytes,
		Reconnects:    s.reconnects,
		Telemetry:     s.telemetryN,
	}
	if s.rep != nil {
		ps.Races = len(s.rep.Races)
		ps.Degraded = s.rep.Degraded
	}
	if s.res != nil {
		ps.Complete = s.res.Complete
	}
	if s.outErr != nil {
		ps.Err = s.outErr.Error()
	}
	return ps
}
