package shadow

import (
	"unsafe"

	"literace/internal/lir"
	"literace/internal/obs"
)

// rec is one stored access epoch plus the scalar attribution a race
// report needs. The clk is the accessing thread's own clock component at
// access time — comparing it against the current thread's vector clock
// decides happens-before in O(1). Evidence payloads live out of line
// (table.evs / mrec.ev) so rec stays 32 bytes and a cell's write+read
// pair packs into a single cache line.
type rec struct {
	clk uint64
	seq uint64
	pc  lir.PC
	tid int32
}

// mrec is one entry of a promoted read-share list: a rec plus its
// evidence payload. The list is rare (promotions, not reads, create it),
// so carrying the interface inline costs nothing on the fast path.
type mrec struct {
	rec
	ev any
}

// evPair holds the out-of-line evidence payloads for one address's
// inline write/read epochs. Allocated only when the caller actually
// attaches evidence (forensic runs); plain detection never touches it.
type evPair struct {
	w any
	r any
}

const (
	cellUsed  uint8 = 1 << iota // slot holds a live address
	cellWrite                   // a write epoch is stored
	cellRead                    // a single inline read epoch is stored
	cellMulti                   // reads promoted to the shared multi list
)

// cellData is the word-granular shadow state of one address: the last
// write epoch and the single inline read epoch (the unpromoted common
// case). Exactly 64 bytes, so the hot loop touches one data cache line
// per access. A promoted cell's read slot holds the index of its
// read-share list in table.lists (r.seq) instead of an epoch.
type cellData struct {
	w rec
	r rec
}

// The single-line layout is the point of the struct-of-arrays split;
// fail the build if a field change silently spills cells over 64 bytes.
var (
	_ [64 - unsafe.Sizeof(cellData{})]byte
	_ [unsafe.Sizeof(cellData{}) - 64]byte
)

// table is an open-addressed, linear-probed shadow-memory table keyed
// by exact word address, laid out struct-of-arrays: keys and flags are
// dense (8 addresses / 64 state bytes per cache line, so probing stays
// cheap), and the 64-byte epoch payloads sit in a parallel data array —
// no per-address heap allocation, no pointer chase on the hot path.
// A bounded table (max > 0) never grows past its budget: inserting a
// new address at the bound deterministically evicts the next live cell
// under a round-robin sweep hand, using backward-shift deletion so
// probe chains stay intact.
type table struct {
	keys  []uint64
	flags []uint8
	data  []cellData

	// lists holds the promoted read-share lists, one epoch per thread
	// that read since the last write, in first-read order, indexed from
	// the cells that own them (so relocations carry the index along).
	// freeLists recycles retired indices together with their backing
	// arrays: promote/demote cycles on hot cells are common in
	// read-heavy traces. evs holds out-of-line evidence for the inline
	// epochs, keyed by address.
	lists     [][]mrec
	freeLists []uint64
	evs       map[uint64]*evPair

	mask      uint64
	live      int
	max       int // live-cell bound; 0 = unbounded
	hand      uint64
	evictions uint64
	cEvict    *obs.Counter // shadow.evictions; nil-safe
}

const minTableCap = 64

func newTable(max int, cEvict *obs.Counter) table {
	capacity := uint64(minTableCap)
	if max > 0 {
		// Size so the bound fits at <= 3/4 load; a bounded table never
		// rehashes.
		for capacity < uint64(max)*4/3+1 {
			capacity <<= 1
		}
	}
	return table{
		keys:   make([]uint64, capacity),
		flags:  make([]uint8, capacity),
		data:   make([]cellData, capacity),
		mask:   capacity - 1,
		max:    max,
		cEvict: cEvict,
	}
}

func (t *table) slot(addr uint64) uint64 {
	h := addr * 0x9e3779b97f4a7c15
	h ^= h >> 29
	return h & t.mask
}

// find returns addr's slot if it sits at its home position — the
// overwhelmingly common case under fibonacci hashing — and -1 on a
// miss or displacement. Small enough to inline into the engine's
// per-access fast paths; callers fall back to cell() on -1.
func (t *table) find(addr uint64) int {
	h := addr * 0x9e3779b97f4a7c15
	h ^= h >> 29
	i := h & t.mask
	if t.flags[i] != 0 && t.keys[i] == addr {
		return int(i)
	}
	return -1
}

// cell returns the slot of the shadow cell for addr, claiming a fresh
// one (or evicting, at the bound) when the address is new.
func (t *table) cell(addr uint64) int {
	idx := t.slot(addr)
	for {
		if t.flags[idx] == 0 {
			// Grow past 3/4 load, the load a bounded table is sized for.
			// Every slot carries a 64-byte data cell, so a sparser table
			// buys a few more find() home hits with a lot of heap.
			if t.max == 0 && t.live+1 > len(t.keys)*3/4 {
				t.grow()
				return t.cell(addr)
			}
			t.keys[idx] = addr
			t.flags[idx] = cellUsed
			t.live++
			if t.max > 0 && t.live > t.max {
				// Eviction compaction may relocate the cell just
				// claimed; re-probe for it instead of trusting idx.
				t.evict(idx)
				return t.cell(addr)
			}
			return int(idx)
		}
		if t.keys[idx] == addr {
			return int(idx)
		}
		idx = (idx + 1) & t.mask
	}
}

// evict removes one live cell other than the one at keep: the sweep
// hand advances to the next occupied slot and that victim is deleted
// with backward-shift compaction, which may relocate later cells of the
// same probe chain (including keep's) into the hole.
func (t *table) evict(keep uint64) {
	idx := t.hand & t.mask
	for {
		if t.flags[idx] != 0 && idx != keep {
			break
		}
		idx = (idx + 1) & t.mask
	}
	t.hand = idx + 1
	t.remove(idx)
	t.evictions++
	t.cEvict.Inc()
}

// remove deletes the cell at slot i using backward-shift deletion:
// every following cell of the probe chain that could have claimed the
// hole moves into it, so linear probing keeps finding every survivor.
// The evicted address's side state (read-share list, evidence) is
// dropped with it; relocated survivors carry their list index and keep
// their addresses, so their side state needs no fixup.
func (t *table) remove(i uint64) {
	if t.flags[i]&cellMulti != 0 {
		t.demote(int(i))
	}
	if t.evs != nil {
		delete(t.evs, t.keys[i])
	}
	t.clear(i)
	j := i
	for {
		j = (j + 1) & t.mask
		if t.flags[j] == 0 {
			break
		}
		// The cell at j (home slot h) may fill the hole at i iff probing
		// from h reaches i no later than j.
		h := t.slot(t.keys[j])
		if (j-h)&t.mask >= (j-i)&t.mask {
			t.keys[i] = t.keys[j]
			t.flags[i] = t.flags[j]
			t.data[i] = t.data[j]
			t.clear(j)
			i = j
		}
	}
	t.live--
}

func (t *table) clear(i uint64) {
	t.keys[i] = 0
	t.flags[i] = 0
	t.data[i] = cellData{}
}

func (t *table) grow() {
	oldKeys, oldFlags, oldData := t.keys, t.flags, t.data
	capacity := uint64(len(oldKeys)) * 2
	t.keys = make([]uint64, capacity)
	t.flags = make([]uint8, capacity)
	t.data = make([]cellData, capacity)
	t.mask = capacity - 1
	t.live = 0
	for i := range oldKeys {
		if oldFlags[i] == 0 {
			continue
		}
		idx := t.slot(oldKeys[i])
		for t.flags[idx] != 0 {
			idx = (idx + 1) & t.mask
		}
		t.keys[idx] = oldKeys[i]
		t.flags[idx] = oldFlags[i]
		t.data[idx] = oldData[i]
		t.live++
	}
}

// rs returns the read-share list of the promoted cell at slot i.
func (t *table) rs(i int) []mrec { return t.lists[t.data[i].r.seq] }

// setRS stores the (grown) read-share list of the promoted cell at i.
func (t *table) setRS(i int, rs []mrec) { t.lists[t.data[i].r.seq] = rs }

// promote gives the cell at slot i an empty read-share list, reusing a
// retired one when there is any, and returns it. It overwrites the
// cell's inline read epoch; the caller sets the flags.
func (t *table) promote(i int) []mrec {
	var id uint64
	if n := len(t.freeLists); n > 0 {
		id = t.freeLists[n-1]
		t.freeLists = t.freeLists[:n-1]
	} else {
		id = uint64(len(t.lists))
		t.lists = append(t.lists, make([]mrec, 0, 4))
	}
	t.data[i].r = rec{seq: id}
	return t.lists[id]
}

// demote retires the read-share list of the promoted cell at slot i.
// The caller resets the cell's read slot and flags.
func (t *table) demote(i int) {
	id := t.data[i].r.seq
	rs := t.lists[id]
	for k := range rs {
		rs[k].ev = nil // release evidence payloads before reuse
	}
	t.lists[id] = rs[:0]
	t.freeLists = append(t.freeLists, id)
}

// ev returns the out-of-line evidence pair for addr, allocating it when
// create is set. Only forensic runs (non-nil evidence payloads) ever
// reach here.
func (t *table) ev(addr uint64, create bool) *evPair {
	if t.evs == nil {
		if !create {
			return nil
		}
		t.evs = make(map[uint64]*evPair, 8)
	}
	p := t.evs[addr]
	if p == nil && create {
		p = &evPair{}
		t.evs[addr] = p
	}
	return p
}
