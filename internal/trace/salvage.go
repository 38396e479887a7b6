package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"literace/internal/obs"
)

// ThreadLoss records what salvage lost for one thread.
type ThreadLoss struct {
	// DroppedChunks counts chunks attributed to the thread that were
	// skipped wholesale (CRC or header failure after the tag decoded).
	DroppedChunks int `json:"dropped_chunks"`
	// SeqGaps counts missing sequence numbers: chunks the writer emitted
	// (or would have) that never made it into the decoded stream.
	SeqGaps uint64 `json:"seq_gaps"`
	// DroppedBytes counts payload bytes lost in dropped or partially
	// decoded chunks attributed to the thread.
	DroppedBytes int64 `json:"dropped_bytes"`
	// EventsSalvaged counts events recovered for the thread.
	EventsSalvaged int `json:"events_salvaged"`
}

// SalvageReport describes what Salvage recovered and what it gave up on.
// The byte accounting is exact: MagicBytes + BytesOK + BytesDropped ==
// TotalBytes.
type SalvageReport struct {
	Format     string `json:"format"`      // "LTRC2" or "LTRC1"
	TotalBytes int64  `json:"total_bytes"` // input size
	MagicBytes int64  `json:"magic_bytes"` // leading magic consumed
	BytesOK    int64  `json:"bytes_ok"`    // bytes inside accepted chunks
	// BytesDropped counts every byte not inside an accepted chunk:
	// corrupt chunks, resync scans, duplicate chunks, and the truncated
	// tail.
	BytesDropped int64 `json:"bytes_dropped"`

	ChunksOK        int `json:"chunks_ok"`
	ChunksDropped   int `json:"chunks_dropped"`
	CRCFailures     int `json:"crc_failures"`
	DuplicateChunks int `json:"duplicate_chunks"`
	// SeqGaps totals the per-thread sequence gaps: chunks the writer
	// emitted that are absent from the input (lost writes; the bytes were
	// never seen, so BytesDropped cannot account for them).
	SeqGaps uint64 `json:"seq_gaps"`

	EventsSalvaged int `json:"events_salvaged"`

	// Truncated is set when the input ends mid-chunk (the signature of a
	// killed process); TruncatedAt is the offset where clean decoding
	// stopped.
	Truncated   bool  `json:"truncated"`
	TruncatedAt int64 `json:"truncated_at,omitempty"`

	// MetaSource says where Log.Meta came from: "trailer" (complete log),
	// "checkpoint" (crash recovery from the last periodic snapshot), or
	// "none".
	MetaSource   string `json:"meta_source"`
	CheckpointAt int64  `json:"checkpoint_at,omitempty"` // offset of the checkpoint used

	// Threads carries per-thread loss detail, keyed by tid.
	Threads map[int32]*ThreadLoss `json:"threads,omitempty"`
}

// Lossy reports whether the log lost anything. It is ReadAll's
// acceptance rule: a strict read succeeds exactly when salvage is not
// lossy.
func (r *SalvageReport) Lossy() bool {
	return r.BytesDropped > 0 || r.ChunksDropped > 0 || r.CRCFailures > 0 ||
		r.SeqGaps > 0 || r.Truncated || r.MetaSource != "trailer"
}

// Err is the strict decoders' verdict on the input: nil when nothing
// was lost, otherwise the damaged-log error ReadAll returns.
func (r *SalvageReport) Err() error {
	if !r.Lossy() {
		return nil
	}
	return fmt.Errorf("trace: damaged log (%s)", r.Summary())
}

// Summary renders the report as one diagnostic line.
func (r *SalvageReport) Summary() string {
	state := "clean"
	if r.Lossy() {
		state = "lossy"
	}
	s := fmt.Sprintf("%s %s: %d/%d chunks ok, %d events salvaged, %d bytes dropped, %d crc failures, meta from %s",
		r.Format, state, r.ChunksOK, r.ChunksOK+r.ChunksDropped, r.EventsSalvaged,
		r.BytesDropped, r.CRCFailures, r.MetaSource)
	if r.SeqGaps > 0 {
		s += fmt.Sprintf(", %d lost chunks (seq gaps)", r.SeqGaps)
	}
	if r.Truncated {
		s += fmt.Sprintf(", truncated at byte %d", r.TruncatedAt)
	}
	return s
}

func (r *SalvageReport) thread(tid int32) *ThreadLoss {
	if r.Threads == nil {
		r.Threads = make(map[int32]*ThreadLoss)
	}
	tl := r.Threads[tid]
	if tl == nil {
		tl = &ThreadLoss{}
		r.Threads[tid] = tl
	}
	return tl
}

// Salvage decodes as much of a damaged log as possible. Unlike ReadAll it
// never fails on truncation or corruption: bad chunks are dropped, the
// decoder resynchronizes on the next chunk marker, duplicate chunks are
// discarded, and a missing trailer falls back to the last valid
// checkpoint. The returned Log has Degraded set for every thread whose
// stream lost a chunk, so degraded-mode replay can tell which orderings
// are suspect. The error is non-nil only when the input cannot be read
// or is not a LiteRace log at all.
func Salvage(r io.Reader) (*Log, *SalvageReport, error) {
	return SalvageObs(r, nil)
}

// SalvageObs is Salvage with telemetry: when reg is non-nil it counts
// trace.crc_failures and trace.salvaged_chunks.
func SalvageObs(r io.Reader, reg *obs.Registry) (*Log, *SalvageReport, error) {
	log, rep, err := decode(r)
	if err != nil {
		return nil, nil, err
	}
	if reg != nil {
		reg.Counter("trace.crc_failures").Add(uint64(rep.CRCFailures))
		reg.Counter("trace.salvaged_chunks").Add(uint64(rep.ChunksOK))
	}
	return log, rep, nil
}

// readPiece is the size of the reads decode feeds to its Stream.
const readPiece = 64 << 10

// decode is the one batch decoder behind ReadAll and Salvage. An LTRC2
// log is read in pieces of up to readPiece bytes, each fed to a Stream
// as it arrives, and the Log is assembled from the chunks the Stream
// accepts. An LTRC1 log, which a Stream cannot resynchronize, goes to
// salvageV1 whole.
//
// Each emitted chunk is copied into an exact-size slice kept per thread
// (the Stream reuses its event buffer); once the input is over, each
// thread's chunks are flattened into one exact-size stream, so no slice
// grows by doubling and a Log costs about two copies of its events.
func decode(r io.Reader) (*Log, *SalvageReport, error) {
	log := &Log{Threads: make(map[int32][]Event)}
	chunks := make(map[int32][][]Event)
	counts := make(map[int32]int)
	s := NewStream(func(tid int32, evs []Event, suspect bool) {
		if suspect {
			log.markDegraded(tid, counts[tid])
		}
		c := make([]Event, len(evs))
		copy(c, evs)
		chunks[tid] = append(chunks[tid], c)
		counts[tid] += len(evs)
		log.ChunkOrder = append(log.ChunkOrder, ChunkRef{TID: tid, N: len(evs)})
	})
	piece := make([]byte, readPiece)
	for {
		n, err := r.Read(piece)
		if n > 0 {
			switch ferr := s.Feed(piece[:n]); {
			case errors.Is(ferr, ErrLegacyStream):
				// The magic is still buffered: nothing has been consumed.
				rest, err := io.ReadAll(r)
				if err != nil {
					return nil, nil, fmt.Errorf("trace: reading log: %w", err)
				}
				log, rep := salvageV1(append(s.buf, rest...))
				return log, rep, nil
			case ferr != nil:
				return nil, nil, ferr
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, fmt.Errorf("trace: reading log: %w", err)
		}
	}
	rep, _ := s.Finish() // it fails only after a failed Feed, handled above
	if !s.magicDone {
		// Empty input or a bare prefix of the magic: a Stream forgives a
		// producer that died there, but a file that short is no log.
		return nil, nil, errNotALog
	}
	for tid, cs := range chunks {
		if len(cs) == 1 {
			log.Threads[tid] = cs[0]
			continue
		}
		evs := make([]Event, 0, counts[tid])
		for i, c := range cs {
			evs = append(evs, c...)
			cs[i] = nil // let the copied chunk go
		}
		log.Threads[tid] = evs
	}
	// A thread whose accepted chunks held no events still has a stream,
	// and a loss after a thread's last accepted chunk still marks it.
	for tid := range s.lastSeq {
		if _, ok := log.Threads[tid]; !ok {
			log.Threads[tid] = nil
		}
	}
	for tid := range s.suspect {
		log.markDegraded(tid, len(log.Threads[tid]))
	}
	log.Meta = s.Meta()
	return log, rep, nil
}

// errTruncatedChunk distinguishes running off the end of the input from
// in-place corruption.
var errTruncatedChunk = errors.New("trace: chunk extends past end of input")

// parseChunkV2 parses the LTRC2 chunk whose marker starts at data[off],
// returning the tag, payload, and the offset just past the CRC. crcOK
// distinguishes a well-framed chunk with a bad checksum from framing
// damage.
func parseChunkV2(data []byte, off int) (tag uint64, payload []byte, end int, crcOK bool, err error) {
	p := off + 4 // past the marker
	if p > len(data) {
		return 0, nil, 0, false, errTruncatedChunk
	}
	tag, n := binary.Uvarint(data[p:])
	if n <= 0 {
		if isTruncatedVarint(data[p:]) {
			return 0, nil, 0, false, errTruncatedChunk
		}
		return 0, nil, 0, false, errors.New("trace: bad chunk tag varint")
	}
	p += n
	size, n := binary.Uvarint(data[p:])
	if n <= 0 {
		if isTruncatedVarint(data[p:]) {
			return 0, nil, 0, false, errTruncatedChunk
		}
		return 0, nil, 0, false, errors.New("trace: bad chunk size varint")
	}
	p += n
	if size > maxChunkLen {
		return 0, nil, 0, false, fmt.Errorf("trace: chunk length %d exceeds limit %d", size, maxChunkLen)
	}
	if uint64(len(data)-p) < size+4 {
		return tag, nil, 0, false, errTruncatedChunk
	}
	payload = data[p : p+int(size)]
	p += int(size)
	got := binary.LittleEndian.Uint32(data[p : p+4])
	end = p + 4
	if got != chunkCRC(tag, payload) {
		return tag, payload, end, false, errors.New("trace: chunk crc mismatch")
	}
	return tag, payload, end, true, nil
}

// isTruncatedVarint reports whether b is a varint prefix cut short by the
// end of input (every byte has the continuation bit and fewer than the
// maximum length are present), as opposed to an overlong encoding.
func isTruncatedVarint(b []byte) bool {
	if len(b) >= binary.MaxVarintLen64 {
		return false
	}
	for _, c := range b {
		if c < 0x80 {
			return false
		}
	}
	return true
}

// salvageV1 decodes a legacy LTRC1 log leniently: the format has no
// markers or CRCs, so there is no resynchronization — decoding stops at
// the first damage and everything before it is kept.
func salvageV1(data []byte) (*Log, *SalvageReport) {
	rep := &SalvageReport{
		Format:     "LTRC1",
		TotalBytes: int64(len(data)),
		MagicBytes: int64(len(magicV1)),
		MetaSource: "none",
	}
	log := &Log{Threads: make(map[int32][]Event)}
	off := len(magicV1)
	sawMeta := false
	truncate := func(at int) {
		rep.Truncated = true
		rep.TruncatedAt = int64(at)
		rep.BytesDropped += int64(len(data) - at)
	}
	for off < len(data) {
		start := off
		tag, n := binary.Uvarint(data[off:])
		if n <= 0 {
			truncate(start)
			break
		}
		off += n
		size, n := binary.Uvarint(data[off:])
		if n <= 0 {
			truncate(start)
			break
		}
		off += n
		if size > uint64(len(data)-off) {
			truncate(start)
			break
		}
		payload := data[off : off+int(size)]
		off += int(size)
		if tag == 0 {
			if err := json.Unmarshal(payload, &log.Meta); err != nil {
				rep.ChunksDropped++
				rep.BytesDropped += int64(off - start)
				continue
			}
			sawMeta = true
			rep.ChunksOK++
			rep.BytesOK += int64(off - start)
			continue
		}
		tid := int32(uint32(tag - 1))
		tl := rep.thread(tid)
		evs, consumed, derr := decodeEventsPrefix(nil, tid, payload)
		tl.EventsSalvaged += len(evs)
		rep.EventsSalvaged += len(evs)
		log.Threads[tid] = append(log.Threads[tid], evs...)
		if len(evs) > 0 {
			log.ChunkOrder = append(log.ChunkOrder, ChunkRef{TID: tid, N: len(evs)})
		}
		if derr != nil {
			// Without CRCs a bad event byte may mean anything; keep the
			// prefix and stop trusting the remainder of the stream.
			tl.DroppedBytes += int64(len(payload) - consumed)
			log.markDegraded(tid, len(log.Threads[tid]))
			rep.BytesOK += int64(off-start) - int64(len(payload)-consumed)
			rep.BytesDropped += int64(len(payload) - consumed)
			rep.Truncated = true
			rep.TruncatedAt = int64(off)
			rep.BytesDropped += int64(len(data) - off)
			break
		}
		rep.ChunksOK++
		rep.BytesOK += int64(off - start)
	}
	if sawMeta {
		rep.MetaSource = "trailer"
	}
	return log, rep
}

// ChunkSpan locates one chunk inside an encoded log.
type ChunkSpan struct {
	Start, End int    // byte offsets: [Start, End)
	Tag        uint64 // raw chunk tag
}

// IsCheckpoint reports whether an LTRC2 span is a periodic metadata
// checkpoint chunk. (LTRC1 logs have no checkpoints, and their tag
// namespace differs; callers must check the log format first.)
func (c ChunkSpan) IsCheckpoint() bool { return c.Tag == tagCheckpoint }

// IsMeta reports whether an LTRC2 span is the metadata trailer.
func (c ChunkSpan) IsMeta() bool { return c.Tag == tagMeta }

// IsLTRC2 reports whether data begins with the current LTRC2 magic, i.e.
// whether ChunkSpans tags follow the LTRC2 namespace.
func IsLTRC2(data []byte) bool { return bytes.HasPrefix(data, []byte(magic)) }

// ChunkSpans enumerates the chunks of a structurally valid encoded log
// (either format). It is the fault-injection harness's map of where it
// may cut, drop, or duplicate.
func ChunkSpans(data []byte) ([]ChunkSpan, error) {
	switch {
	case bytes.HasPrefix(data, []byte(magic)):
		var spans []ChunkSpan
		off := len(magic)
		for off < len(data) {
			if !bytes.HasPrefix(data[off:], chunkMarker[:]) {
				return nil, fmt.Errorf("trace: no chunk marker at offset %d", off)
			}
			tag, _, end, _, err := parseChunkV2(data, off)
			if err != nil {
				return nil, fmt.Errorf("trace: chunk at offset %d: %w", off, err)
			}
			spans = append(spans, ChunkSpan{Start: off, End: end, Tag: tag})
			off = end
		}
		return spans, nil
	case bytes.HasPrefix(data, []byte(magicV1)):
		var spans []ChunkSpan
		off := len(magicV1)
		for off < len(data) {
			start := off
			tag, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return nil, fmt.Errorf("trace: bad chunk tag at offset %d", off)
			}
			off += n
			size, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return nil, fmt.Errorf("trace: bad chunk size at offset %d", off)
			}
			off += n
			if size > uint64(len(data)-off) {
				return nil, fmt.Errorf("trace: chunk at offset %d extends past end", start)
			}
			off += int(size)
			spans = append(spans, ChunkSpan{Start: start, End: off, Tag: tag})
		}
		return spans, nil
	}
	return nil, errors.New("trace: bad magic")
}
