package trace

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"literace/internal/obs"
)

// Binary layout (LTRC2, the current version):
//
//	file   := magic chunk*
//	magic  := "LTRC2\n"
//	chunk  := marker[4] uvarint(tag) uvarint(len) payload[len] crc32le[4]
//	marker := F7 "LT2"
//	tag    := 0            ; metadata trailer (JSON Meta)
//	        | 1            ; checkpoint (JSON Meta snapshot, best effort)
//	        | tid + 2      ; event chunk for thread tid
//	payload (tid chunk)  := uvarint(seq) event*       ; seq is 1,2,3,... per thread
//	payload (meta/ckpt)  := JSON-encoded Meta
//	event  := kind byte, op byte, then per-kind varints:
//	          mem:  pcFunc pcIndex addr mask
//	          sync: pcFunc pcIndex addr counter ts
//	          sched markers reuse the sync layout: addr is the global slice
//	          index, counter is 0, and ts is the virtual instruction clock
//
// The CRC32 (IEEE, little-endian) covers the tag and length varints plus
// the payload, so any corruption inside a chunk is detectable, and the
// marker gives the decoder a resynchronization point after
// corruption. Per-thread sequence numbers make dropped or duplicated
// chunks detectable. Checkpoints carry the run counters accumulated so
// far, so a log truncated by a crash still has usable metadata.
//
// Chunks from the same thread appear in program order; chunks from
// different threads interleave arbitrarily (each thread flushes its own
// buffer, mirroring the paper's per-thread log buffers). A thread's
// buffer flushes when it fills and right after each fork event, so a
// fork's chunk precedes every chunk of the thread it starts.
//
// ReadAll also accepts the legacy LTRC1 format (no markers, CRCs,
// sequence numbers, or checkpoints; thread chunks use tag tid+1).

const (
	magicV1 = "LTRC1\n"
	magic   = "LTRC2\n"

	// tag namespace of LTRC2 chunks.
	tagMeta       = 0
	tagCheckpoint = 1
	tagThreadBase = 2

	// maxChunkLen bounds the declared chunk length so a corrupt uvarint
	// cannot drive an unbounded allocation. The writer never produces
	// chunks anywhere near this size (flushThreshold plus one event).
	maxChunkLen = 1 << 20

	// checkpointInterval is how many encoded bytes may elapse between
	// metadata checkpoints.
	checkpointInterval = 1 << 16
)

// chunkMarker precedes every LTRC2 chunk; the decoder scans for
// it to resynchronize after corruption.
var chunkMarker = [4]byte{0xF7, 'L', 'T', '2'}

// Meta is the run metadata written as the log trailer (and, partially, in
// periodic checkpoint chunks). It carries the counters the evaluation
// needs: total memory operations for effective sampling rates (Table 3),
// non-stack memory instructions for the rare/frequent classification
// (Table 4), and cost-model cycles for the overhead tables (Table 5,
// Figure 6).
type Meta struct {
	Module  string `json:"module"`
	Seed    int64  `json:"seed"`
	Threads int    `json:"threads"`

	Instrs      uint64 `json:"instrs"`       // dynamic instructions executed
	MemOps      uint64 `json:"mem_ops"`      // dynamic data accesses (load/store)
	StackMemOps uint64 `json:"stack_ops"`    // subset of MemOps touching thread stacks
	SyncOps     uint64 `json:"sync_ops"`     // dynamic synchronization operations
	Cycles      uint64 `json:"cycles"`       // virtual cycles including instrumentation cost
	BaseCycles  uint64 `json:"base_cycles"`  // virtual cycles excluding instrumentation cost
	WallNanos   int64  `json:"wall_nanos"`   // wall-clock run time
	LoggedBytes uint64 `json:"logged_bytes"` // encoded log size

	// Samplers holds the mask-bit order: bit i of a memory event's Mask is
	// set when Samplers[i] would have logged the event.
	Samplers []string `json:"samplers"`
	// SampledOps[i] counts memory operations sampler i would have logged.
	SampledOps []uint64 `json:"sampled_ops"`
	// Primary is the sampler that actually controlled instrumentation.
	Primary string `json:"primary"`
}

// EffectiveRate returns sampler i's effective sampling rate: the fraction
// of memory operations it logged (§5.2).
func (m *Meta) EffectiveRate(i int) float64 {
	if m.MemOps == 0 || i >= len(m.SampledOps) {
		return 0
	}
	return float64(m.SampledOps[i]) / float64(m.MemOps)
}

// SamplerIndex returns the mask bit for the named sampler, or -1.
func (m *Meta) SamplerIndex(name string) int {
	for i, s := range m.Samplers {
		if s == name {
			return i
		}
	}
	return -1
}

// Writer encodes events to an underlying io.Writer. Each thread appends to
// its own buffer via a ThreadWriter; buffers flush as chunks under a mutex.
type Writer struct {
	mu      sync.Mutex
	w       *bufio.Writer
	written uint64
	err     error
	threads map[int32]*ThreadWriter
	closed  bool

	lastCkpt   uint64      // written watermark of the last checkpoint
	metaSource func() Meta // optional snapshot provider for checkpoints

	// Chunk framing scratch, reused under mu so a flush allocates
	// nothing: the marker, tag, length and (thread chunks) sequence
	// varints, and the CRC trailer.
	hdr  [4 + 3*binary.MaxVarintLen64]byte
	crcb [4]byte

	// Telemetry instruments; all nil when observability is disabled.
	obsReg    *obs.Registry
	obsBytes  *obs.Counter // trace.bytes_written
	obsChunks *obs.Counter // trace.chunks_flushed
	obsEvents *obs.Counter // trace.events_appended
}

// flushThreshold is the per-thread buffer size that triggers a chunk flush.
const flushThreshold = 1 << 14

// NewWriter starts a log on w.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(magic); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	return &Writer{
		w:        bw,
		written:  uint64(len(magic)),
		lastCkpt: uint64(len(magic)),
		threads:  make(map[int32]*ThreadWriter),
	}, nil
}

// SetObs attaches telemetry instruments to the writer: bytes written,
// chunk flushes, events appended, and per-thread flush counters. Call
// before the first Thread call; nil disables (the default).
func (w *Writer) SetObs(r *obs.Registry) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.obsReg = r
	w.obsBytes = r.Counter("trace.bytes_written")
	w.obsChunks = r.Counter("trace.chunks_flushed")
	w.obsEvents = r.Counter("trace.events_appended")
	w.obsBytes.Add(w.written) // account for the magic already emitted
}

// SetMetaSource registers a callback that snapshots the run counters
// accumulated so far. The writer invokes it when emitting periodic
// checkpoint chunks, so a log truncated by a crash still carries usable
// metadata. The callback runs under the writer lock and must not call
// back into the Writer. Nil (the default) makes checkpoints carry only
// the writer's own byte count.
func (w *Writer) SetMetaSource(f func() Meta) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.metaSource = f
}

// Thread returns the per-thread writer for tid, creating it on first use.
func (w *Writer) Thread(tid int32) *ThreadWriter {
	w.mu.Lock()
	defer w.mu.Unlock()
	tw := w.threads[tid]
	if tw == nil {
		tw = &ThreadWriter{parent: w, tid: tid, obsEvents: w.obsEvents}
		if w.obsReg != nil {
			tw.obsFlushes = w.obsReg.Counter(fmt.Sprintf("trace.thread_flushes.t%d", tid))
		}
		w.threads[tid] = tw
	}
	return tw
}

// flushChunk writes one chunk and, after thread chunks, a metadata
// checkpoint when enough bytes have elapsed; callers hold no locks.
func (w *Writer) flushChunk(tag, seq uint64, body []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.flushChunkLocked(tag, seq, body); err != nil {
		return err
	}
	if tag >= tagThreadBase && w.written-w.lastCkpt >= checkpointInterval {
		return w.writeCheckpointLocked()
	}
	return nil
}

// flushChunkLocked writes one chunk whose payload is body, prefixed by
// uvarint(seq) when seq is non-zero (thread chunks number from 1;
// metadata chunks carry no sequence number).
func (w *Writer) flushChunkLocked(tag, seq uint64, body []byte) error {
	if w.err != nil {
		return w.err
	}
	hdr := w.hdr[:]
	copy(hdr[:4], chunkMarker[:])
	n := 4 + binary.PutUvarint(hdr[4:], tag)
	plen := len(body)
	var seqb [binary.MaxVarintLen64]byte
	ns := 0
	if seq > 0 {
		ns = binary.PutUvarint(seqb[:], seq)
		plen += ns
	}
	n += binary.PutUvarint(hdr[n:], uint64(plen))
	n += copy(hdr[n:], seqb[:ns])
	crc := crc32.ChecksumIEEE(hdr[4:n])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	binary.LittleEndian.PutUint32(w.crcb[:], crc)
	if _, err := w.w.Write(hdr[:n]); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
		return w.err
	}
	if _, err := w.w.Write(body); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
		return w.err
	}
	if _, err := w.w.Write(w.crcb[:]); err != nil {
		w.err = fmt.Errorf("trace: %w", err)
		return w.err
	}
	size := uint64(n + len(body) + 4)
	w.written += size
	w.obsBytes.Add(size)
	w.obsChunks.Inc()
	return nil
}

// writeCheckpointLocked emits a tag-1 checkpoint chunk carrying the best
// counter snapshot available.
func (w *Writer) writeCheckpointLocked() error {
	var meta Meta
	if w.metaSource != nil {
		meta = w.metaSource()
	}
	meta.LoggedBytes = w.written
	payload, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("trace: encoding checkpoint: %w", err)
	}
	if err := w.flushChunkLocked(tagCheckpoint, 0, payload); err != nil {
		return err
	}
	w.lastCkpt = w.written
	return nil
}

// Close flushes all thread buffers, writes the metadata trailer, and
// flushes the underlying writer. meta.LoggedBytes is filled in by Close.
func (w *Writer) Close(meta Meta) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return errors.New("trace: writer already closed")
	}
	w.closed = true
	tws := make([]*ThreadWriter, 0, len(w.threads))
	for _, tw := range w.threads {
		tws = append(tws, tw)
	}
	w.mu.Unlock()
	// Flush in thread order, not map order: the final chunks' positions
	// are part of the log's canonical arrival order (replay delivers by
	// chunk order), so a deterministic execution must close into a log
	// with a deterministic chunk sequence.
	sort.Slice(tws, func(i, j int) bool { return tws[i].tid < tws[j].tid })

	for _, tw := range tws {
		if err := tw.Flush(); err != nil {
			return err
		}
	}

	w.mu.Lock()
	defer w.mu.Unlock()
	meta.LoggedBytes = w.written
	payload, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("trace: encoding meta: %w", err)
	}
	if err := w.flushChunkLocked(tagMeta, 0, payload); err != nil {
		return err
	}
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// BytesWritten returns the number of encoded bytes emitted so far.
func (w *Writer) BytesWritten() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.written
}

// ThreadWriter buffers one thread's events.
type ThreadWriter struct {
	parent *Writer
	tid    int32
	buf    []byte
	count  uint64
	seq    uint64 // sequence number of the last flushed chunk

	obsEvents  *obs.Counter // shared trace.events_appended
	obsFlushes *obs.Counter // trace.thread_flushes.t<tid>
}

// Append encodes one event into the thread buffer. The buffer flushes
// when it reaches flushThreshold, and right after a fork event: the
// forked thread's first event waits on the fork's timestamp, so a fork
// held back in its thread's buffer would make a replay buffer the
// child's whole stream until the parent's next flush.
func (tw *ThreadWriter) Append(e Event) error {
	tw.buf = appendEvent(tw.buf, e)
	tw.count++
	tw.obsEvents.Inc()
	if len(tw.buf) >= flushThreshold || e.Op == OpFork {
		return tw.Flush()
	}
	return nil
}

// Count returns the number of events appended to this thread.
func (tw *ThreadWriter) Count() uint64 { return tw.count }

// Flush writes the buffered events as one chunk, prefixed with this
// thread's next sequence number.
func (tw *ThreadWriter) Flush() error {
	if len(tw.buf) == 0 {
		return nil
	}
	tw.seq++
	err := tw.parent.flushChunk(uint64(uint32(tw.tid))+tagThreadBase, tw.seq, tw.buf)
	tw.buf = tw.buf[:0]
	tw.obsFlushes.Inc()
	return err
}

func appendEvent(buf []byte, e Event) []byte {
	buf = append(buf, byte(e.Kind), byte(e.Op))
	buf = binary.AppendUvarint(buf, uint64(uint32(e.PC.Func)))
	buf = binary.AppendUvarint(buf, uint64(uint32(e.PC.Index)))
	buf = binary.AppendUvarint(buf, e.Addr)
	if e.Kind.IsMem() {
		buf = binary.AppendUvarint(buf, uint64(e.Mask))
	} else {
		buf = append(buf, e.Counter)
		buf = binary.AppendUvarint(buf, e.TS)
	}
	return buf
}

// Log is a fully decoded trace: per-thread event sequences in program
// order plus run metadata.
type Log struct {
	Meta    Meta
	Threads map[int32][]Event

	// Degraded, when non-nil, marks the per-thread event index from which
	// the stream follows a salvage loss (a dropped chunk or sequence gap):
	// orderings derived from events at or past that index are suspect.
	// ReadAll always leaves it nil; Salvage fills it in.
	Degraded map[int32]int

	// ChunkOrder lists the accepted thread chunks in the byte order they
	// appear in the encoded log: entry i says "the next N events of thread
	// TID". Replay uses it as the canonical arrival order, which is what
	// lets the online pipeline (fed chunk by chunk) and a batch pass over
	// the same bytes reach identical results. Nil for hand-built logs;
	// replay then treats each per-thread stream as one batch.
	ChunkOrder []ChunkRef
}

// markDegraded marks tid suspect from event index at on, unless an
// earlier loss already marked it.
func (l *Log) markDegraded(tid int32, at int) {
	if l.Degraded == nil {
		l.Degraded = make(map[int32]int)
	}
	if _, ok := l.Degraded[tid]; !ok {
		l.Degraded[tid] = at
	}
}

// ChunkRef locates one thread chunk within Log.ChunkOrder: the next N
// events of thread TID.
type ChunkRef struct {
	TID int32
	N   int
}

// NumEvents returns the total event count across threads.
func (l *Log) NumEvents() int {
	n := 0
	for _, evs := range l.Threads {
		n += len(evs)
	}
	return n
}

// TIDs returns the thread ids present in the log, ascending.
func (l *Log) TIDs() []int32 {
	out := make([]int32, 0, len(l.Threads))
	for tid := range l.Threads {
		out = append(out, tid)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// ReadAll decodes a complete log from r: LTRC2 (with every CRC, sequence
// number, and the metadata trailer verified) or the legacy LTRC1 format.
// It is the salvage decoder plus one rule: a log that salvage could not
// recover in full is an error naming the damage. Use Salvage to extract
// a best-effort log from damaged input.
func ReadAll(r io.Reader) (*Log, error) {
	log, rep, err := decode(r)
	if err != nil {
		return nil, err
	}
	if err := rep.Err(); err != nil {
		return nil, err
	}
	return log, nil
}

// chunkCRC computes the CRC an LTRC2 chunk must carry: IEEE CRC32 over
// the (minimally encoded) tag and length varints plus the payload.
func chunkCRC(tag uint64, payload []byte) uint32 {
	var hdr [2 * binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], tag)
	n += binary.PutUvarint(hdr[n:], uint64(len(payload)))
	// The header bytes go through the table by hand: handing hdr to
	// crc32 would move it to the heap, one allocation per chunk.
	crc := ^uint32(0)
	for _, b := range hdr[:n] {
		crc = crc32.IEEETable[byte(crc)^b] ^ crc>>8
	}
	return crc32.Update(^crc, crc32.IEEETable, payload)
}

// decodeEventsPrefix decodes as many complete events as payload holds,
// appending them to dst, and returns the extended slice alongside the
// number of bytes consumed. A decode failure returns the events decoded
// so far, the offset of the bad event, and the error; the decoders keep
// the prefix. Most varints in a log are one byte (small PCs, masks and
// counters) or two (addresses and timestamps below 16384), so the loop
// reads those inline and calls binary.Uvarint only for longer ones.
func decodeEventsPrefix(dst []Event, tid int32, payload []byte) ([]Event, int, error) {
	evs := dst
	i := 0
	for i < len(payload) {
		at := i
		if len(payload)-i < 2 {
			return evs, at, errors.New("trace: truncated event header")
		}
		e := Event{Kind: Kind(payload[i]), Op: SyncOp(payload[i+1]), TID: tid}
		if e.Kind >= numKinds {
			return evs, at, fmt.Errorf("trace: bad event kind %d", e.Kind)
		}
		if e.Op >= numSyncOps {
			return evs, at, fmt.Errorf("trace: bad sync op %d", e.Op)
		}
		i += 2
		// Each varint: one or two bytes inline, else uvarintAt (i < 0
		// on error). A two-byte varint is a byte with the continuation
		// bit, then one without.
		var v uint64
		if i < len(payload) && payload[i] < 0x80 {
			v, i = uint64(payload[i]), i+1
		} else if i+1 < len(payload) && payload[i+1] < 0x80 {
			v, i = uint64(payload[i]&0x7f)|uint64(payload[i+1])<<7, i+2
		} else if v, i = uvarintAt(payload, i); i < 0 {
			return evs, at, errTruncatedVarint
		}
		e.PC.Func = int32(uint32(v))
		if i < len(payload) && payload[i] < 0x80 {
			v, i = uint64(payload[i]), i+1
		} else if i+1 < len(payload) && payload[i+1] < 0x80 {
			v, i = uint64(payload[i]&0x7f)|uint64(payload[i+1])<<7, i+2
		} else if v, i = uvarintAt(payload, i); i < 0 {
			return evs, at, errTruncatedVarint
		}
		e.PC.Index = int32(uint32(v))
		if i < len(payload) && payload[i] < 0x80 {
			e.Addr, i = uint64(payload[i]), i+1
		} else if i+1 < len(payload) && payload[i+1] < 0x80 {
			e.Addr, i = uint64(payload[i]&0x7f)|uint64(payload[i+1])<<7, i+2
		} else if e.Addr, i = uvarintAt(payload, i); i < 0 {
			return evs, at, errTruncatedVarint
		}
		if e.Kind.IsMem() {
			if i < len(payload) && payload[i] < 0x80 {
				v, i = uint64(payload[i]), i+1
			} else if i+1 < len(payload) && payload[i+1] < 0x80 {
				v, i = uint64(payload[i]&0x7f)|uint64(payload[i+1])<<7, i+2
			} else if v, i = uvarintAt(payload, i); i < 0 {
				return evs, at, errTruncatedVarint
			}
			e.Mask = uint32(v)
		} else {
			if i >= len(payload) {
				return evs, at, errors.New("trace: truncated sync event")
			}
			e.Counter = payload[i]
			i++
			if i < len(payload) && payload[i] < 0x80 {
				e.TS, i = uint64(payload[i]), i+1
			} else if i+1 < len(payload) && payload[i+1] < 0x80 {
				e.TS, i = uint64(payload[i]&0x7f)|uint64(payload[i+1])<<7, i+2
			} else if e.TS, i = uvarintAt(payload, i); i < 0 {
				return evs, at, errTruncatedVarint
			}
		}
		evs = append(evs, e)
	}
	return evs, len(payload), nil
}

var errTruncatedVarint = errors.New("trace: truncated varint")

// uvarintAt decodes the uvarint at b[i:] and returns it with the index
// just past it, or i = -1 when b[i:] holds no valid uvarint. Even a
// two-line one-byte fast path here would not fit the inliner's budget,
// so decodeEventsPrefix tests for one-byte values itself.
func uvarintAt(b []byte, i int) (uint64, int) {
	v, n := binary.Uvarint(b[i:])
	if n <= 0 {
		return 0, -1
	}
	return v, i + n
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, errTruncatedVarint
	}
	return v, b[n:], nil
}
