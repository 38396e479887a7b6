package collector

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"literace"
	"literace/internal/obs"
	"literace/internal/obs/diag"
	"literace/internal/obs/export"
	"literace/internal/obs/ledger"
	"literace/internal/obs/tsdb"
)

// Defaults for Options' resource bounds.
const (
	DefaultMaxSessions     = 64
	DefaultMaxReorderBytes = 1 << 20
	DefaultResumeGrace     = 3 * time.Second
	DefaultIdleTimeout     = 30 * time.Second
	// DefaultRetainFinalized bounds how many finalized sessions stay
	// resident for /fleet history; older ones are retired once their
	// outcome is rolled into the fleet race set. Long-haul soaks churn
	// through thousands of short-lived producers — without this bound
	// the session map is a slow leak.
	DefaultRetainFinalized = 256
	// DefaultTSInterval is the collector's time-series sampling cadence
	// when a store is wired but no interval given.
	DefaultTSInterval = time.Second
)

// FleetSchema identifies the FLEET.json / GET /fleet artifact format.
const FleetSchema = "literace.fleet/v1"

// Options configures a Server. The zero value works: anonymous function
// names and the default resource bounds.
type Options struct {
	// Resolve maps original function indices to names in race reports
	// (nil for raw indices). It must match what producers will be
	// detect-ed with for report parity.
	Resolve func(int32) string
	// MaxSessions bounds concurrently live (active + parked) producer
	// sessions; a hello past the bound is rejected. 0 = DefaultMaxSessions.
	MaxSessions int
	// MaxFrame bounds one frame payload. 0 = DefaultMaxFrame.
	MaxFrame int
	// MaxReorderBytes bounds each session's out-of-order buffer; overflow
	// sheds (see session.shedLocked). 0 = DefaultMaxReorderBytes.
	MaxReorderBytes int
	// ResumeGrace is how long a disconnected session waits for the
	// producer to reconnect before finalizing under salvage rules.
	// 0 = DefaultResumeGrace.
	ResumeGrace time.Duration
	// IdleTimeout bounds how long a connection may take to deliver one
	// frame (the slow-loris bound). 0 = DefaultIdleTimeout.
	IdleTimeout time.Duration
	// OutDir, when non-empty, receives <producer>.report.txt per
	// finalized session and FLEET.json at Close.
	OutDir string
	// LedgerDir, when non-empty, appends one literace.runreport/v2 per
	// finalized producer (Source "collector") to the ledger there.
	LedgerDir string
	// Obs, Diag, Log: the usual observability trio; all optional.
	Obs  *obs.Registry
	Diag *diag.Recorder
	Log  *slog.Logger
	// SLO, when non-nil, arms the watchdog: the server polls it against
	// the flight recorder and the aggregate session backlog; a sustained
	// breach surfaces from SLOErr (the CLI maps it to exit 4).
	SLO *diag.SLO
	// TS, when non-nil, receives fleet time-series history: a background
	// poller samples the registry (plus collector.* aggregates and proc
	// stats) every TSInterval, and accepted producer telemetry frames
	// land as fleet.<producer>.<metric> series. Served on
	// /api/timeseries and /dashboard.
	TS *tsdb.Store
	// TSInterval is the TS sampling cadence. 0 = DefaultTSInterval.
	TSInterval time.Duration
	// RetainFinalized bounds resident finalized sessions (oldest retired
	// first, after their rollup). 0 = DefaultRetainFinalized; negative
	// retains everything (the pre-soak behavior).
	RetainFinalized int
}

// Server is the fleet collector. Create with New, attach a listener
// with Serve, stop with Close.
type Server struct {
	opts Options
	log  *slog.Logger
	rec  *diag.Recorder
	wd   *diag.Watchdog
	led  *ledger.Ledger

	lis net.Listener

	mu        sync.Mutex
	sessions  map[string]*session
	names     []string // insertion order, for deterministic iteration
	finalized int
	retired   int
	finSignal chan struct{}
	fleet     map[string]*FleetRace
	panics    uint64

	ledMu sync.Mutex

	closing atomic.Bool
	done    chan struct{}
	wg      sync.WaitGroup
	start   time.Time
	scrapes atomic.Uint64
}

// New builds a collector server. It opens the ledger eagerly so a bad
// ledger directory fails at startup, not at the first rollup.
func New(opts Options) (*Server, error) {
	log := opts.Log
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	// The flight recorder is always on: the fleet report's turbulence
	// counters (sheds, disconnects) come from it, and a bounded ring is
	// cheap even with telemetry off.
	rec := opts.Diag
	if rec == nil {
		rec = diag.NewRecorderObs(diag.DefaultCapacity, opts.Obs)
	}
	s := &Server{
		opts:      opts,
		log:       log,
		rec:       rec,
		sessions:  make(map[string]*session),
		finSignal: make(chan struct{}),
		fleet:     make(map[string]*FleetRace),
		done:      make(chan struct{}),
		start:     time.Now(),
	}
	if opts.SLO != nil {
		s.wd = diag.NewWatchdog(*opts.SLO)
	}
	if opts.LedgerDir != "" {
		led, err := ledger.Open(opts.LedgerDir)
		if err != nil {
			return nil, err
		}
		s.led = led
	}
	return s, nil
}

func (s *Server) maxSessions() int {
	if s.opts.MaxSessions > 0 {
		return s.opts.MaxSessions
	}
	return DefaultMaxSessions
}

func (s *Server) maxFrame() int {
	if s.opts.MaxFrame > 0 {
		return s.opts.MaxFrame
	}
	return DefaultMaxFrame
}

func (s *Server) maxReorder() int {
	if s.opts.MaxReorderBytes > 0 {
		return s.opts.MaxReorderBytes
	}
	return DefaultMaxReorderBytes
}

func (s *Server) resumeGrace() time.Duration {
	if s.opts.ResumeGrace > 0 {
		return s.opts.ResumeGrace
	}
	return DefaultResumeGrace
}

func (s *Server) idleTimeout() time.Duration {
	if s.opts.IdleTimeout > 0 {
		return s.opts.IdleTimeout
	}
	return DefaultIdleTimeout
}

func (s *Server) retainFinalized() int {
	switch {
	case s.opts.RetainFinalized > 0:
		return s.opts.RetainFinalized
	case s.opts.RetainFinalized < 0:
		return int(^uint(0) >> 1) // retain everything
	}
	return DefaultRetainFinalized
}

func (s *Server) tsInterval() time.Duration {
	if s.opts.TSInterval > 0 {
		return s.opts.TSInterval
	}
	return DefaultTSInterval
}

// Serve accepts producer connections on lis until Close. The janitor
// (parked-session expiry) and, when an SLO is armed, the watchdog
// poller run alongside. Serve returns nil after Close.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.lis = lis
	s.mu.Unlock()
	if s.closing.Load() {
		// Close won the race with Serve: don't accept on a listener the
		// shutdown will never see again.
		_ = lis.Close()
		return nil
	}
	s.wg.Add(1)
	go s.janitor()
	if s.wd != nil {
		s.wg.Add(1)
		go s.sloPoller()
	}
	if s.opts.TS != nil {
		s.wg.Add(1)
		go s.tsPoller()
	}
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.closing.Load() {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Addr returns the listener's address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis == nil {
		return ""
	}
	return lis.Addr().String()
}

// handleConn runs one producer connection, fault-isolated: panics are
// recovered (failing only this producer's session), every read carries
// the idle deadline, and a disconnect without EOF parks the session for
// resume instead of losing it.
func (s *Server) handleConn(conn net.Conn) {
	var sess *session
	gen := 0
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.mu.Lock()
			s.panics++
			s.mu.Unlock()
			s.log.Error("session handler panicked; recovered", "panic", fmt.Sprint(r))
			if sess != nil {
				s.finalizeSession(sess, fmt.Errorf("collector: session handler panic: %v", r))
			}
		}
		_ = conn.Close()
	}()

	idle := s.idleTimeout()
	_ = conn.SetReadDeadline(time.Now().Add(idle))
	br := bufio.NewReaderSize(conn, 64<<10)

	var magic [len(Magic)]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || string(magic[:]) != Magic {
		s.log.Warn("connection without collector magic dropped", "remote", conn.RemoteAddr().String())
		return
	}
	var hello Hello
	if err := readJSONLine(br, &hello); err != nil {
		s.log.Warn("bad hello", "remote", conn.RemoteAddr().String(), "err", err)
		return
	}
	var reply HelloReply
	sess, gen, reply = s.openSession(conn, hello)
	if err := writeJSONLine(conn, reply); err != nil || !reply.OK {
		if !reply.OK {
			s.log.Warn("hello rejected", "producer", hello.Producer, "err", reply.Err)
		}
		return
	}
	s.log.Info("producer attached", "producer", hello.Producer, "resume_at", reply.Next)

	for {
		_ = conn.SetReadDeadline(time.Now().Add(idle))
		flags, off, payload, err := readFrame(br, s.maxFrame())
		if err != nil {
			// Disconnect, timeout, or oversized frame: park for resume
			// (unless a takeover already owns the session).
			sess.park(gen)
			return
		}
		switch flags {
		case frameEOF:
			if !sess.current(gen) {
				return // kicked by a takeover mid-stream
			}
			final := sess.finishEOF(off)
			_ = conn.SetWriteDeadline(time.Now().Add(idle))
			_ = writeJSONLine(conn, final)
			return
		case frameData:
			if err := sess.ingest(off, payload); err != nil {
				// Not an LTRC2 stream at all — fatal for this producer only.
				final := s.finalizeSession(sess, err)
				_ = conn.SetWriteDeadline(time.Now().Add(idle))
				_ = writeJSONLine(conn, final)
				return
			}
		case frameTelemetry:
			s.acceptTelemetry(sess, payload)
		default:
			// Unknown frame kind (a future protocol extension, or a
			// confused producer): answer with a structured reject and keep
			// the session alive. The producer drains reject lines while
			// waiting for its FinalReply.
			s.rec.Anomaly(diag.AnomUnknownFrame, -1, uint64(flags), off)
			s.log.Warn("unknown frame kind rejected",
				"producer", sess.name, "flags", flags, "bytes", len(payload))
			_ = conn.SetWriteDeadline(time.Now().Add(idle))
			_ = writeJSONLine(conn, Reject{Reject: true, Flags: flags,
				Reason: fmt.Sprintf("unknown frame kind %d", flags)})
		}
	}
}

// openSession resolves a hello to a (possibly resumed) session.
func (s *Server) openSession(conn net.Conn, h Hello) (*session, int, HelloReply) {
	if h.V != ProtocolVersion {
		return nil, 0, HelloReply{Err: fmt.Sprintf("unsupported protocol version %d (want %d)", h.V, ProtocolVersion)}
	}
	if h.Producer == "" {
		return nil, 0, HelloReply{Err: "hello without a producer name"}
	}
	if s.closing.Load() {
		return nil, 0, HelloReply{Err: "collector shutting down"}
	}
	s.mu.Lock()
	sess := s.sessions[h.Producer]
	if sess == nil {
		live := 0
		for _, name := range s.names {
			if st := s.sessions[name].stateNow(); st == sessActive || st == sessParked {
				live++
			}
		}
		if live >= s.maxSessions() {
			s.mu.Unlock()
			return nil, 0, HelloReply{Err: fmt.Sprintf("at capacity (%d live sessions)", live)}
		}
		sess = newSession(s, h.Producer, h.Module)
		s.sessions[h.Producer] = sess
		s.names = append(s.names, h.Producer)
	}
	s.mu.Unlock()
	next, gen, err := sess.attach(conn)
	if err != nil {
		return nil, 0, HelloReply{Err: err.Error()}
	}
	// Ack the telemetry capability iff the producer asked: the producer
	// must not send flag-2 frames without this ack.
	return sess, gen, HelloReply{OK: true, Next: next, Telemetry: h.Telemetry}
}

// acceptTelemetry ingests one telemetry frame: the latest update is
// pinned on the session (for /metrics per-producer families) and every
// metric lands in the fleet time-series store stamped with the
// collector's receive time. A malformed payload is counted and skipped
// — telemetry is best-effort and must never fail a data session.
func (s *Server) acceptTelemetry(sess *session, payload []byte) {
	upd := &TelemetryUpdate{}
	if err := json.Unmarshal(payload, upd); err != nil {
		s.log.Debug("malformed telemetry frame ignored", "producer", sess.name, "err", err)
		return
	}
	now := time.Now()
	sess.noteTelemetry(upd, now)
	if ts := s.opts.TS; ts != nil {
		t := now.UnixNano()
		prefix := "fleet." + sess.name + "."
		for name, v := range upd.Gauges {
			ts.Append(prefix+name, tsdb.KindGauge, t, v)
		}
		for name, c := range upd.Counters {
			ts.Append(prefix+name, tsdb.KindCounter, t, float64(c))
		}
	}
}

// tsPoller fills the wired time-series store: the registry's families
// (via a sampler, with proc stats) plus collector.* aggregates every
// tsInterval.
func (s *Server) tsPoller() {
	defer s.wg.Done()
	samp := tsdb.NewSampler(s.opts.TS, s.opts.Obs, tsdb.SamplerOptions{Proc: true})
	t := time.NewTicker(s.tsInterval())
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			now := time.Now()
			samp.PollAt(now)
			ts := now.UnixNano()
			active, parked := s.sessionCounts()
			s.opts.TS.Append("collector.backlog", tsdb.KindGauge, ts, float64(s.probe().Backlog))
			s.opts.TS.Append("collector.sessions_active", tsdb.KindGauge, ts, float64(active))
			s.opts.TS.Append("collector.sessions_parked", tsdb.KindGauge, ts, float64(parked))
			s.opts.TS.Append("collector.sheds", tsdb.KindCounter, ts, float64(s.rec.AnomalyCount(diag.AnomShed)))
			s.opts.TS.Append("collector.disconnects", tsdb.KindCounter, ts, float64(s.rec.AnomalyCount(diag.AnomDisconnect)))
			s.mu.Lock()
			panics, retired := s.panics, s.retired
			s.mu.Unlock()
			s.opts.TS.Append("collector.panics", tsdb.KindCounter, ts, float64(panics))
			s.opts.TS.Append("collector.sessions_retired", tsdb.KindCounter, ts, float64(retired))
		}
	}
}

// sessionCounts tallies live sessions by state.
func (s *Server) sessionCounts() (active, parked int) {
	for _, sess := range s.snapshotSessions() {
		switch sess.stateNow() {
		case sessActive:
			active++
		case sessParked:
			parked++
		}
	}
	return active, parked
}

// finalizeSession finishes a session's pipeline exactly once, records
// the outcome, and rolls it into the fleet. ingestErr, when non-nil, is
// a fatal ingest failure and wins over the pipeline result.
func (s *Server) finalizeSession(sess *session, ingestErr error) FinalReply {
	sess.mu.Lock()
	return s.finalizeSessionLocked(sess, ingestErr)
}

// finalizeSessionLocked is finalizeSession with sess.mu already held; it
// releases the lock before the fleet rollup.
func (s *Server) finalizeSessionLocked(sess *session, ingestErr error) FinalReply {
	if sess.state == sessDone || sess.state == sessFailed {
		reply := replyLocked(sess)
		sess.mu.Unlock()
		return reply
	}
	err := ingestErr
	if err == nil {
		sess.rep, sess.res, err = sess.pipe.Finish()
	}
	if err != nil {
		sess.setState(sessFailed)
		sess.outErr = err
		sess.rep, sess.res = nil, nil
	} else {
		sess.setState(sessDone)
	}
	sess.conn = nil
	sess.backlog.Store(0)
	reply := replyLocked(sess)
	name, rep := sess.name, sess.rep
	var complete bool
	if sess.res != nil {
		complete = sess.res.Complete
	}
	sess.mu.Unlock()

	if err != nil {
		s.log.Error("session failed", "producer", name, "err", err)
	} else {
		s.log.Info("session finalized", "producer", name,
			"races", len(rep.Races), "degraded", rep.Degraded, "complete", complete)
	}
	s.rollup(sess, rep)
	return reply
}

// replyLocked renders the FinalReply for a finalized session.
func replyLocked(sess *session) FinalReply {
	if sess.state == sessFailed {
		msg := "session failed"
		if sess.outErr != nil {
			msg = sess.outErr.Error()
		}
		return FinalReply{Err: msg}
	}
	r := FinalReply{
		OK:       true,
		Report:   sess.rep.String(),
		Races:    len(sess.rep.Races),
		Degraded: sess.rep.Degraded,
	}
	r.Unconfirmed = len(sess.rep.Races) - len(sess.rep.Confirmed())
	if sess.res != nil {
		r.Complete = sess.res.Complete
		r.Events = int64(sess.res.MemOps + sess.res.SyncOps)
	}
	return r
}

// rollup merges a finalized session into the fleet state and emits the
// per-producer artifacts.
func (s *Server) rollup(sess *session, rep *literace.Report) {
	s.mu.Lock()
	s.finalized++
	if rep != nil {
		for _, rc := range rep.Races {
			key := rc.First + "\x00" + rc.Second
			fr := s.fleet[key]
			if fr == nil {
				fr = &FleetRace{First: rc.First, Second: rc.Second}
				s.fleet[key] = fr
			}
			fr.Count += rc.Count
			fr.WriteWrite += rc.WriteWrite
			fr.ReadWrite += rc.ReadWrite
			if !rc.Unconfirmed {
				fr.Confirmed = true
			}
			fr.Producers = append(fr.Producers, sess.name)
		}
	}
	close(s.finSignal)
	s.finSignal = make(chan struct{})
	s.retireLocked()
	s.mu.Unlock()

	if rep == nil {
		return
	}
	if s.opts.OutDir != "" {
		path := filepath.Join(s.opts.OutDir, sanitizeName(sess.name)+".report.txt")
		if err := os.WriteFile(path, []byte(rep.String()), 0o644); err != nil {
			s.log.Error("writing producer report", "producer", sess.name, "err", err)
		}
	}
	if s.led != nil {
		rr := literace.BuildDetectReport(rep, 0)
		rr.Source = "collector"
		if rr.Module == "" {
			rr.Module = sess.module
		}
		if rr.Module == "" {
			rr.Module = sess.name
		}
		s.ledMu.Lock()
		_, err := s.led.Append(rr)
		s.ledMu.Unlock()
		if err != nil {
			s.log.Error("ledger append", "producer", sess.name, "err", err)
		}
	}
}

// retireLocked (s.mu held) evicts the oldest finalized sessions past
// the retention bound. Their outcome is already rolled into the fleet
// race set and counters; only the per-producer status row disappears
// from /fleet. A retired name that reconnects starts a fresh session
// at offset zero — exactly what a soak's churning short-lived
// producers want, and long-lived producers are never retired while
// active or parked.
func (s *Server) retireLocked() {
	retain := s.retainFinalized()
	resident := 0
	for _, name := range s.names {
		if st := s.sessions[name].stateNow(); st == sessDone || st == sessFailed {
			resident++
		}
	}
	if resident <= retain {
		return
	}
	kept := s.names[:0]
	for _, name := range s.names {
		st := s.sessions[name].stateNow()
		final := st == sessDone || st == sessFailed
		if final && resident > retain {
			delete(s.sessions, name)
			resident--
			s.retired++
			continue
		}
		kept = append(kept, name)
	}
	s.names = kept
}

var unsafeFile = regexp.MustCompile(`[^A-Za-z0-9._-]+`)

func sanitizeName(name string) string {
	out := unsafeFile.ReplaceAllString(name, "_")
	if out == "" {
		out = "producer"
	}
	return out
}

// janitor expires parked sessions whose resume grace has passed,
// finalizing them under salvage rules (the torn tail degrades that
// producer's analysis; confirmed races stay trustworthy).
func (s *Server) janitor() {
	defer s.wg.Done()
	tick := s.resumeGrace() / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			for _, sess := range s.snapshotSessions() {
				// Re-checking under the session lock closes the race with a
				// producer resuming at the very edge of the grace window:
				// either the attach wins and the session is active again, or
				// the finalize wins and the attach is rejected.
				sess.mu.Lock()
				if sess.state == sessParked && time.Since(sess.parkedAt) >= s.resumeGrace() {
					s.log.Warn("resume grace expired; finalizing torn session", "producer", sess.name)
					s.finalizeSessionLocked(sess, nil)
				} else {
					sess.mu.Unlock()
				}
			}
		}
	}
}

// sloPoller drives the armed watchdog off the flight recorder and the
// aggregate session backlog.
func (s *Server) sloPoller() {
	defer s.wg.Done()
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-t.C:
			s.wd.Poll(s.rec, s.probe())
		}
	}
}

// probe aggregates the live backlog across sessions.
func (s *Server) probe() diag.Probe {
	var sum int64
	for _, sess := range s.snapshotSessions() {
		sum += sess.backlog.Load()
	}
	return diag.Probe{Backlog: int(sum)}
}

func (s *Server) snapshotSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.names))
	for _, name := range s.names {
		out = append(out, s.sessions[name])
	}
	return out
}

// Backlog returns the aggregate live decode backlog across sessions —
// the soak harness's bounded-backlog probe.
func (s *Server) Backlog() int {
	return s.probe().Backlog
}

// Turbulence returns the fleet's cumulative shed, disconnect, and
// recovered-panic counts.
func (s *Server) Turbulence() (sheds, disconnects, panics uint64) {
	s.mu.Lock()
	panics = s.panics
	s.mu.Unlock()
	return s.rec.AnomalyCount(diag.AnomShed), s.rec.AnomalyCount(diag.AnomDisconnect), panics
}

// Finalized returns how many sessions have finalized (cleanly or not).
func (s *Server) Finalized() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.finalized
}

// WaitFinalized blocks until n sessions have finalized, or the timeout
// passes (timeout <= 0 waits forever).
func (s *Server) WaitFinalized(n int, timeout time.Duration) error {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	s.mu.Lock()
	for s.finalized < n {
		ch := s.finSignal
		s.mu.Unlock()
		if deadline.IsZero() {
			<-ch
		} else {
			remain := time.Until(deadline)
			if remain <= 0 {
				return fmt.Errorf("collector: %d of %d sessions finalized before timeout", s.Finalized(), n)
			}
			select {
			case <-ch:
			case <-time.After(remain):
			}
		}
		s.mu.Lock()
	}
	s.mu.Unlock()
	return nil
}

// SLOErr returns nil, or the sustained-breach error once the armed
// watchdog has latched (exit code 4 at the CLI). Always nil when no SLO
// was armed.
func (s *Server) SLOErr() error {
	if s.wd == nil {
		return nil
	}
	return s.wd.Err()
}

// Close shuts the collector down gracefully: stop accepting, kick and
// finalize every live session (their torn tails analyzed under salvage
// rules), wait for the handlers, and write FLEET.json when an OutDir is
// configured.
func (s *Server) Close() error {
	if s.closing.Swap(true) {
		return nil
	}
	s.mu.Lock()
	lis := s.lis
	s.mu.Unlock()
	if lis != nil {
		_ = lis.Close()
	}
	for _, sess := range s.snapshotSessions() {
		sess.mu.Lock()
		if sess.conn != nil {
			_ = sess.conn.Close()
		}
		sess.mu.Unlock()
	}
	close(s.done)
	s.wg.Wait()
	for _, sess := range s.snapshotSessions() {
		s.finalizeSession(sess, nil)
	}
	if s.opts.OutDir != "" {
		rep := s.FleetReport()
		b, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(filepath.Join(s.opts.OutDir, "FLEET.json"), append(b, '\n'), 0o644)
		}
		if err != nil {
			s.log.Error("writing FLEET.json", "err", err)
			return err
		}
	}
	return nil
}

// ProducerStatus is one producer's row in the fleet report.
type ProducerStatus struct {
	Name          string `json:"name"`
	Module        string `json:"module,omitempty"`
	State         string `json:"state"`
	AcceptedBytes uint64 `json:"accepted_bytes"`
	Frames        uint64 `json:"frames"`
	DupFrames     uint64 `json:"dup_frames,omitempty"`
	Reordered     uint64 `json:"reordered_frames,omitempty"`
	Sheds         uint64 `json:"sheds,omitempty"`
	ShedBytes     uint64 `json:"shed_bytes,omitempty"`
	Reconnects    uint64 `json:"reconnects,omitempty"`
	// Telemetry counts accepted telemetry frames from this producer.
	Telemetry uint64 `json:"telemetry_updates,omitempty"`
	Races     int    `json:"races"`
	Degraded  bool   `json:"degraded,omitempty"`
	Complete  bool   `json:"complete,omitempty"`
	Err       string `json:"err,omitempty"`
}

// FleetRace is one static race deduplicated across the fleet. Confirmed
// means at least one producer observed it with intact happens-before
// orderings (the zero-false-positive guarantee covers it fleet-wide).
type FleetRace struct {
	First      string   `json:"first"`
	Second     string   `json:"second"`
	Count      uint64   `json:"count"`
	WriteWrite uint64   `json:"write_write"`
	ReadWrite  uint64   `json:"read_write"`
	Confirmed  bool     `json:"confirmed"`
	Producers  []string `json:"producers"`
}

// FleetReport is the aggregate view: every producer's status plus the
// deduplicated fleet race set, deterministically ordered.
type FleetReport struct {
	Schema    string           `json:"schema"`
	Producers []ProducerStatus `json:"producers"`
	Finalized int              `json:"finalized"`
	// Retired counts finalized sessions evicted by the retention bound;
	// their races and turbulence stay in the aggregates, only their
	// status rows are gone.
	Retired     int         `json:"retired,omitempty"`
	Races       []FleetRace `json:"races"`
	Confirmed   int         `json:"confirmed_races"`
	Unconfirmed int         `json:"unconfirmed_races"`
	Shed        uint64      `json:"shed_events"`
	Disconnects uint64      `json:"disconnects"`
	Panics      uint64      `json:"panics"`
}

// FleetReport snapshots the fleet state. Safe to call at any time.
func (s *Server) FleetReport() *FleetReport {
	sessions := s.snapshotSessions()
	rep := &FleetReport{Schema: FleetSchema}
	for _, sess := range sessions {
		rep.Producers = append(rep.Producers, sess.status())
	}
	sort.Slice(rep.Producers, func(i, j int) bool { return rep.Producers[i].Name < rep.Producers[j].Name })

	s.mu.Lock()
	rep.Finalized = s.finalized
	rep.Retired = s.retired
	rep.Panics = s.panics
	for _, fr := range s.fleet {
		cp := *fr
		cp.Producers = append([]string(nil), fr.Producers...)
		sort.Strings(cp.Producers)
		cp.Producers = dedupStrings(cp.Producers)
		rep.Races = append(rep.Races, cp)
	}
	s.mu.Unlock()
	sort.Slice(rep.Races, func(i, j int) bool {
		a, b := rep.Races[i], rep.Races[j]
		if a.First != b.First {
			return a.First < b.First
		}
		return a.Second < b.Second
	})
	for _, fr := range rep.Races {
		if fr.Confirmed {
			rep.Confirmed++
		} else {
			rep.Unconfirmed++
		}
	}
	rep.Shed = s.rec.AnomalyCount(diag.AnomShed)
	rep.Disconnects = s.rec.AnomalyCount(diag.AnomDisconnect)
	return rep
}

func dedupStrings(in []string) []string {
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// Health computes a fresh liveness-oriented health report: unlike the
// latching SLO watchdog, these checks read the *current* fleet state,
// so /healthz degrades while producers are disconnected or backlogged
// and recovers once the storm passes. The armed SLO (exit code 4) is a
// separate, deliberately latching judgment.
func (s *Server) Health() *diag.Health {
	nActive, nParked := 0, 0
	var lag int64
	for _, sess := range s.snapshotSessions() {
		switch sess.stateNow() {
		case sessActive:
			nActive++
		case sessParked:
			nParked++
		}
		lag += sess.backlog.Load()
	}
	maxLag := diag.DefaultSLO().MaxDecodeLag
	if s.opts.SLO != nil && s.opts.SLO.MaxDecodeLag != 0 {
		maxLag = s.opts.SLO.MaxDecodeLag
	}
	checks := []diag.Check{
		{Name: "active_sessions", Value: int64(nActive), Limit: int64(s.maxSessions())},
		{Name: "parked_sessions", Value: int64(nParked), Limit: 0},
		{Name: "decode_lag", Value: lag, Limit: int64(maxLag)},
	}
	enabled, failing := 0, 0
	for i := range checks {
		c := &checks[i]
		if c.Limit < 0 {
			c.OK = true
			continue
		}
		enabled++
		c.OK = c.Value <= c.Limit
		if !c.OK {
			failing++
		}
	}
	h := &diag.Health{Status: "ok", Score: 100, Checks: checks}
	if enabled > 0 && failing > 0 {
		h.Score = 100 - (100*failing+enabled-1)/enabled
		h.Status = "degraded"
	}
	return h
}

// Handler returns the collector's HTTP surface: the standard telemetry
// endpoints (/metrics, /snapshot, /healthz, /debug/pprof — plus
// /api/timeseries and /dashboard when a time-series store is wired)
// over the configured registry with /healthz answering the live fleet
// health, /metrics extended with per-producer-labeled fleet families,
// plus GET /fleet (the FleetReport as JSON) and POST /ingest (one-shot
// whole-log upload: ?producer=NAME, the body is the encoded log, the
// response is the FinalReply JSON).
func (s *Server) Handler() http.Handler {
	reg := s.opts.Obs
	if reg == nil {
		reg = obs.New()
	}
	base := export.NewHandler(reg, s.start, &s.scrapes, s.Health, s.opts.TS, nil)
	mux := http.NewServeMux()
	mux.Handle("/", base)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		s.scrapes.Add(1)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = export.WriteProm(w, reg.Snapshot())
		s.writeFleetProm(w)
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		b, err := json.MarshalIndent(s.FleetReport(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		_, _ = w.Write(append(b, '\n'))
	})
	// /races is the fleet race set in the cross-surface literace.races/v1
	// shape (every -serve surface answers it; see docs/OBSERVABILITY.md).
	// The fleet aggregates by resolved name across heterogeneous producer
	// modules, so the per-race PC and address fields stay zero here — the
	// name pair is the identity. The document is never final: producers
	// can keep arriving until shutdown prints the authoritative report.
	mux.HandleFunc("/races", func(w http.ResponseWriter, r *http.Request) {
		s.scrapes.Add(1)
		fleet := s.FleetReport()
		doc := literace.RaceList{Races: make([]literace.Race, 0, len(fleet.Races))}
		for _, fr := range fleet.Races {
			doc.Races = append(doc.Races, literace.Race{
				First:       fr.First,
				Second:      fr.Second,
				Count:       fr.Count,
				WriteWrite:  fr.WriteWrite,
				ReadWrite:   fr.ReadWrite,
				Unconfirmed: !fr.Confirmed,
			})
		}
		b, err := doc.MarshalStable()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(b)
	})
	mux.HandleFunc("/ingest", s.handleIngest)
	return mux
}

// writeFleetProm appends the per-producer labeled families to a
// /metrics scrape: one literace_fleet_producer_* family per session
// counter, plus literace_fleet_producer_metric{producer,metric} rows
// carrying each producer's latest shipped telemetry. Rows are sorted
// by producer (and metric) so scrapes are deterministic for a fixed
// fleet state.
func (s *Server) writeFleetProm(w io.Writer) {
	type row struct {
		st  ProducerStatus
		upd *TelemetryUpdate
	}
	sessions := s.snapshotSessions()
	rows := make([]row, 0, len(sessions))
	for _, sess := range sessions {
		upd, _ := sess.latestTelemetry()
		rows = append(rows, row{st: sess.status(), upd: upd})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].st.Name < rows[j].st.Name })

	families := []struct {
		name, help string
		val        func(ProducerStatus) float64
	}{
		{"accepted_bytes", "contiguous bytes accepted from this producer (its resume offset)",
			func(p ProducerStatus) float64 { return float64(p.AcceptedBytes) }},
		{"frames", "frames received from this producer",
			func(p ProducerStatus) float64 { return float64(p.Frames) }},
		{"reconnects", "times this producer re-attached",
			func(p ProducerStatus) float64 { return float64(p.Reconnects) }},
		{"sheds", "reorder-budget sheds charged to this producer",
			func(p ProducerStatus) float64 { return float64(p.Sheds) }},
		{"shed_bytes", "bytes abandoned to sheds for this producer",
			func(p ProducerStatus) float64 { return float64(p.ShedBytes) }},
		{"telemetry_updates", "telemetry frames accepted from this producer",
			func(p ProducerStatus) float64 { return float64(p.Telemetry) }},
		{"races", "static races in this producer's finalized report",
			func(p ProducerStatus) float64 { return float64(p.Races) }},
	}
	for _, f := range families {
		fam := "literace_fleet_producer_" + f.name
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", fam, f.help, fam)
		for _, r := range rows {
			// These are all integral session counters; %.0f keeps big
			// offsets out of scientific notation.
			fmt.Fprintf(w, "%s{producer=\"%s\"} %.0f\n", fam, export.PromLabel(r.st.Name), f.val(r.st))
		}
	}

	fam := "literace_fleet_producer_metric"
	fmt.Fprintf(w, "# HELP %s latest telemetry shipped by each producer\n# TYPE %s gauge\n", fam, fam)
	for _, r := range rows {
		if r.upd == nil {
			continue
		}
		names := make([]string, 0, len(r.upd.Gauges)+len(r.upd.Counters))
		for name := range r.upd.Gauges {
			names = append(names, name)
		}
		for name := range r.upd.Counters {
			names = append(names, name)
		}
		sort.Strings(names)
		names = dedupStrings(names)
		for _, name := range names {
			v, ok := r.upd.Gauges[name]
			if !ok {
				v = float64(r.upd.Counters[name])
			}
			fmt.Fprintf(w, "%s{producer=\"%s\",metric=\"%s\"} %g\n",
				fam, export.PromLabel(r.st.Name), export.PromLabel(name), v)
		}
	}
}

// handleIngest is the HTTP one-shot path: the whole log in one body.
// It shares the session machinery (and its fault isolation) with the
// TCP path, so an HTTP producer appears in the fleet like any other.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	defer func() {
		if p := recover(); p != nil {
			s.mu.Lock()
			s.panics++
			s.mu.Unlock()
			s.log.Error("ingest handler panicked; recovered", "panic", fmt.Sprint(p))
			http.Error(w, "internal error", http.StatusInternalServerError)
		}
	}()
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	name := r.URL.Query().Get("producer")
	if name == "" {
		http.Error(w, "missing ?producer=", http.StatusBadRequest)
		return
	}
	sess, gen, reply := s.openSession(nil, Hello{
		V:        ProtocolVersion,
		Producer: name,
		Module:   r.URL.Query().Get("module"),
	})
	if !reply.OK {
		http.Error(w, reply.Err, http.StatusConflict)
		return
	}
	_ = gen
	off := reply.Next
	buf := make([]byte, 256<<10)
	for {
		n, err := r.Body.Read(buf)
		if n > 0 {
			if ferr := sess.ingest(off, buf[:n]); ferr != nil {
				writeFinal(w, s.finalizeSession(sess, ferr))
				return
			}
			off += uint64(n)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			sess.park(gen)
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	writeFinal(w, sess.finishEOF(off))
}

func writeFinal(w http.ResponseWriter, final FinalReply) {
	w.Header().Set("Content-Type", "application/json")
	if !final.OK {
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	_ = json.NewEncoder(w).Encode(final)
}

// String renders a fleet report for human consumption, mirroring
// Report.String's shape at fleet scope.
func (f *FleetReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d producers (%d finalized), %d static races (%d confirmed, %d unconfirmed)\n",
		len(f.Producers), f.Finalized, len(f.Races), f.Confirmed, f.Unconfirmed)
	if f.Shed > 0 || f.Disconnects > 0 || f.Panics > 0 {
		fmt.Fprintf(&b, "turbulence: %d sheds, %d disconnects, %d recovered panics\n",
			f.Shed, f.Disconnects, f.Panics)
	}
	for _, rc := range f.Races {
		conf := "confirmed"
		if !rc.Confirmed {
			conf = "UNCONFIRMED"
		}
		fmt.Fprintf(&b, "  %-11s %s <-> %s  count=%d (ww=%d, rw=%d) producers=%s\n",
			conf, rc.First, rc.Second, rc.Count, rc.WriteWrite, rc.ReadWrite, strings.Join(rc.Producers, ","))
	}
	return b.String()
}
