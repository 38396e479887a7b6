package trace

import (
	"bytes"
	"encoding/json"
	"errors"
)

// ErrLegacyStream is returned by Stream.Feed for LTRC1 input: the legacy
// format has no chunk markers or CRCs, so it cannot be decoded
// incrementally with resynchronization. Use ReadAll or Salvage instead.
var ErrLegacyStream = errors.New("trace: stream: legacy LTRC1 log (no markers); use ReadAll or Salvage")

var errNotALog = errors.New("trace: not a LiteRace log (bad magic)")

// Stream is the LTRC2 decoder: feed it the encoded log in arbitrary
// pieces (tailing a growing file, reading a socket) and it emits each
// accepted thread chunk as soon as the bytes for it are complete. It
// owns the recovery rules — marker resynchronization after corruption,
// CRC verification, duplicate drop, sequence-gap accounting, checkpoint
// metadata fallback — and the SalvageReport accounting. Salvage and
// ReadAll are this decoder fed a whole input in 64 KiB reads, so the
// online and batch paths accept the same chunks from the same bytes by
// construction. Memory stays bounded by the largest pending chunk
// (maxChunkLen) regardless of input size.
//
// The one thing an online decoder cannot know is whether missing bytes
// are still in flight: an incomplete chunk at the end of the buffer makes
// Feed wait for more input, and only Finish — the caller's assertion that
// the input is over — applies the truncated-tail rules to whatever
// remains.
type Stream struct {
	// emit receives each accepted thread chunk in byte order: the chunk's
	// decoded events and whether the thread's stream is suspect at this
	// point (it follows a salvage loss — a dropped chunk or sequence gap —
	// so orderings derived from these events are no longer trustworthy).
	// events is the decoder's scratch: valid only during the call.
	emit func(tid int32, events []Event, suspect bool)

	buf   []byte  // unconsumed input, a window of store
	store []byte  // retained input buffer; Feed moves buf to its front
	evs   []Event // decode scratch, reused for every chunk
	base  int64   // absolute offset of buf[0] in the full input

	magicDone bool
	finished  bool
	err       error // sticky Feed error
	finErr    error

	// garbage tracks an active resynchronization run: bytes are being
	// discarded while scanning for the next chunk marker. garbageTrunc
	// distinguishes a run that began at a chunk boundary (the tail is
	// flagged truncated if it never resynchronizes) from one that began
	// inside a corrupt chunk (skipped silently).
	garbage      bool
	garbageTrunc bool
	garbageStart int64

	lastSeq map[int32]uint64
	suspect map[int32]bool

	meta    Meta
	sawMeta bool
	ckpt    *Meta
	ckptAt  int64

	rep *SalvageReport
}

// NewStream returns an incremental decoder delivering accepted thread
// chunks to emit (which may be nil to decode for the report alone). The
// events slice emit receives is reused for the next chunk: it is valid
// only during the call, so a consumer that keeps events copies them.
func NewStream(emit func(tid int32, events []Event, suspect bool)) *Stream {
	return &Stream{
		emit:    emit,
		lastSeq: make(map[int32]uint64),
		suspect: make(map[int32]bool),
		rep: &SalvageReport{
			Format:     "LTRC2",
			MetaSource: "none",
		},
	}
}

// Feed appends p to the stream and decodes every chunk that is now
// complete, invoking emit for each accepted thread chunk. An incomplete
// chunk at the end of the buffer is kept for the next Feed. The error is
// non-nil only when the input is not an LTRC2 log at all; corruption
// within the stream is recovered from and accounted, never fatal.
func (s *Stream) Feed(p []byte) error {
	if s.finished {
		return errors.New("trace: stream: feed after finish")
	}
	if s.err != nil {
		return s.err
	}
	s.rep.TotalBytes += int64(len(p))
	s.append(p)
	if !s.magicDone {
		if len(s.buf) < len(magic) {
			// Reject early when the prefix can no longer extend to a magic.
			if !bytes.HasPrefix([]byte(magic), s.buf) && !bytes.HasPrefix([]byte(magicV1), s.buf) {
				s.err = errNotALog
				return s.err
			}
			return nil
		}
		switch {
		case bytes.HasPrefix(s.buf, []byte(magic)):
			s.magicDone = true
			s.rep.MagicBytes = int64(len(magic))
			s.consume(len(magic))
		case bytes.HasPrefix(s.buf, []byte(magicV1)):
			s.err = ErrLegacyStream
			return s.err
		default:
			s.err = errNotALog
			return s.err
		}
	}
	s.parse(false)
	return nil
}

// Finish declares the input complete: the remaining buffer is decoded
// under the end-of-input rules (a chunk cut short is dropped and the
// tail flagged truncated) and the metadata source is resolved. The report remains readable afterwards; further Feeds error.
func (s *Stream) Finish() (*SalvageReport, error) {
	if s.finished {
		return s.rep, s.finErr
	}
	s.finished = true
	if s.err != nil {
		s.finErr = s.err
		return s.rep, s.finErr
	}
	if !s.magicDone {
		// A producer that connected and died before completing the
		// 6-byte header left nothing decodable: zero bytes, or a proper
		// prefix of the magic (anything else already made Feed error).
		// There are no chunks to salvage and no tail to truncate, so
		// Finish succeeds with the bytes accounted as dropped instead of
		// inventing a torn-tail failure.
		if n := len(s.buf); n > 0 {
			s.drop(n)
		}
		return s.rep, nil
	}
	s.parse(true)
	switch {
	case s.sawMeta:
		s.rep.MetaSource = "trailer"
	case s.ckpt != nil:
		s.meta = *s.ckpt
		s.rep.MetaSource = "checkpoint"
		s.rep.CheckpointAt = s.ckptAt
	}
	return s.rep, nil
}

// Report returns the live accounting so far; before Finish the
// truncation and metadata-source fields are still provisional.
func (s *Stream) Report() *SalvageReport { return s.rep }

// Complete reports whether the metadata trailer has been decoded — the
// writer's Close ran, so no more chunks are coming.
func (s *Stream) Complete() bool { return s.sawMeta }

// Meta returns the best run metadata available: the trailer once
// Complete, otherwise (after Finish) the last checkpoint if any.
func (s *Stream) Meta() Meta { return s.meta }

// Buffered returns the number of bytes held waiting for a chunk to
// complete.
func (s *Stream) Buffered() int { return len(s.buf) }

// append adds p after the unconsumed input. The remainder, at most one
// partial chunk, moves to the front of the retained buffer first, so the
// buffer grows only to the largest remainder plus piece ever seen
// instead of being reallocated whenever a chunk straddles two pieces.
func (s *Stream) append(p []byte) {
	n := len(s.buf)
	if n+len(p) > cap(s.store) {
		grown := make([]byte, n+len(p), max(n+len(p), 2*cap(s.store)))
		copy(grown, s.buf)
		s.store = grown
	} else {
		copy(s.store[:n], s.buf)
		s.store = s.store[:n+len(p)]
	}
	copy(s.store[n:], p)
	s.buf = s.store
}

func (s *Stream) consume(n int) {
	s.base += int64(n)
	s.buf = s.buf[n:]
	if len(s.buf) == 0 {
		s.buf = nil
	}
}

func (s *Stream) drop(n int) {
	if n > 0 {
		s.rep.BytesDropped += int64(n)
	}
	s.consume(n)
}

func (s *Stream) truncateAt(at int64) {
	s.rep.Truncated = true
	if s.rep.TruncatedAt == 0 {
		s.rep.TruncatedAt = at
	}
}

func (s *Stream) markSuspect(tid int32) { s.suspect[tid] = true }

// parse consumes every decodable chunk at the head of the buffer. With
// final unset it stops at the first chunk still awaiting bytes; with
// final set it applies the end-of-input rules instead.
func (s *Stream) parse(final bool) {
	if final && len(s.buf) == 0 && s.garbage {
		// A garbage run consumed the rest of the input in earlier feeds;
		// the input ending here makes it the truncated tail.
		if s.garbageTrunc {
			s.truncateAt(s.garbageStart)
		}
		s.garbage = false
		return
	}
	for len(s.buf) > 0 {
		idx := bytes.Index(s.buf, chunkMarker[:])
		if idx != 0 {
			// Garbage (or a partial marker) at the head: resynchronize.
			if !s.garbage {
				// Entered from a chunk boundary: the tail is truncated
				// if no marker ever follows.
				s.garbage, s.garbageTrunc, s.garbageStart = true, true, s.base
			}
			if idx > 0 {
				s.drop(idx)
				s.garbage = false
				continue
			}
			// No full marker buffered yet.
			if final {
				if s.garbageTrunc {
					s.truncateAt(s.garbageStart)
				}
				s.drop(len(s.buf))
				s.garbage = false
				return
			}
			keep := markerPrefixLen(s.buf)
			s.drop(len(s.buf) - keep)
			return
		}
		s.garbage = false

		tag, payload, end, crcOK, err := parseChunkV2(s.buf, 0)
		if err != nil {
			if errors.Is(err, errTruncatedChunk) {
				if !final {
					// The chunk's bytes have not all arrived; wait.
					return
				}
				// A bit flip in a length field can fake truncation, so
				// look for a later marker before concluding the log just
				// ends here.
				if next := bytes.Index(s.buf[1:], chunkMarker[:]); next >= 0 {
					s.rep.ChunksDropped++
					if tag >= tagThreadBase {
						tid := int32(uint32(tag - tagThreadBase))
						s.rep.thread(tid).DroppedChunks++
						s.markSuspect(tid)
					}
					s.drop(1 + next)
					continue
				}
				s.truncateAt(s.base)
				s.drop(len(s.buf))
				return
			}
			// In-place corruption: drop the chunk (or the bytes that
			// pretended to be one) and resynchronize on the next marker.
			s.rep.ChunksDropped++
			if !crcOK && end > 0 {
				s.rep.CRCFailures++
			}
			if tag >= tagThreadBase {
				tid := int32(uint32(tag - tagThreadBase))
				tl := s.rep.thread(tid)
				tl.DroppedChunks++
				tl.DroppedBytes += int64(len(payload))
				s.markSuspect(tid)
			}
			if next := bytes.Index(s.buf[1:], chunkMarker[:]); next >= 0 {
				s.drop(1 + next)
				continue
			}
			// Skip silently to end of input: damage inside a chunk is
			// corruption, not a truncated tail.
			s.garbage, s.garbageTrunc, s.garbageStart = true, false, s.base
			if final {
				s.drop(len(s.buf))
				s.garbage = false
				return
			}
			keep := markerPrefixLen(s.buf)
			s.drop(len(s.buf) - keep)
			return
		}

		// A well-formed chunk.
		switch {
		case tag == tagMeta:
			if jerr := json.Unmarshal(payload, &s.meta); jerr != nil {
				s.rep.ChunksDropped++
				s.rep.BytesDropped += int64(end)
			} else {
				s.sawMeta = true
				s.rep.ChunksOK++
				s.rep.BytesOK += int64(end)
			}
		case tag == tagCheckpoint:
			var m Meta
			if jerr := json.Unmarshal(payload, &m); jerr != nil {
				s.rep.ChunksDropped++
				s.rep.BytesDropped += int64(end)
			} else {
				s.ckpt, s.ckptAt = &m, s.base
				s.rep.ChunksOK++
				s.rep.BytesOK += int64(end)
			}
		default:
			tid := int32(uint32(tag - tagThreadBase))
			tl := s.rep.thread(tid)
			seq, rest, serr := takeUvarint(payload)
			if serr != nil {
				s.rep.ChunksDropped++
				tl.DroppedChunks++
				tl.DroppedBytes += int64(len(payload))
				s.markSuspect(tid)
				s.drop(end)
				continue
			}
			if seq <= s.lastSeq[tid] {
				// Duplicate (or replayed) chunk: already in the stream.
				s.rep.DuplicateChunks++
				s.drop(end)
				continue
			}
			if gap := seq - s.lastSeq[tid] - 1; gap > 0 {
				tl.SeqGaps += gap
				s.rep.SeqGaps += gap
				s.markSuspect(tid)
			}
			s.lastSeq[tid] = seq
			evs, n, derr := decodeEventsPrefix(s.evs[:0], tid, rest)
			s.evs = evs
			tl.EventsSalvaged += len(evs)
			s.rep.EventsSalvaged += len(evs)
			suspect := s.suspect[tid]
			if derr != nil {
				// CRC-valid but undecodable tail: keep the prefix, mark
				// the thread suspect from here on.
				tl.DroppedBytes += int64(len(rest) - n)
				s.markSuspect(tid)
				s.rep.BytesDropped += int64(len(rest) - n)
				s.rep.BytesOK += int64(end) - int64(len(rest)-n)
			} else {
				s.rep.BytesOK += int64(end)
			}
			s.rep.ChunksOK++
			if len(evs) > 0 && s.emit != nil {
				s.emit(tid, evs, suspect)
			}
		}
		s.consume(end)
	}
}

// markerPrefixLen returns the length of the longest proper prefix of the
// chunk marker that is a suffix of b — the bytes a resynchronizing
// stream must keep in case the marker completes in the next feed.
func markerPrefixLen(b []byte) int {
	for k := len(chunkMarker) - 1; k > 0; k-- {
		if len(b) >= k && bytes.Equal(b[len(b)-k:], chunkMarker[:k]) {
			return k
		}
	}
	return 0
}
