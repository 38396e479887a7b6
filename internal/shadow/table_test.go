package shadow

import (
	"testing"
)

// auditTable checks structural invariants: live matches the used slots,
// no address appears twice, and every used slot is reachable by probing
// from its home slot (backward-shift deletion must never strand one).
func auditTable(t *testing.T, tab *table) {
	t.Helper()
	used := 0
	seen := make(map[uint64]bool)
	for i := range tab.flags {
		if tab.flags[i] == 0 {
			continue
		}
		used++
		addr := tab.keys[i]
		if seen[addr] {
			t.Fatalf("address %#x stored twice", addr)
		}
		seen[addr] = true
		// Probe from the home slot: we must hit this cell before any
		// empty slot.
		idx := tab.slot(addr)
		for {
			if tab.flags[idx] == 0 {
				t.Fatalf("address %#x stranded: probe chain hit an empty slot", addr)
			}
			if tab.keys[idx] == addr {
				break
			}
			idx = (idx + 1) & tab.mask
		}
	}
	if used != tab.live {
		t.Fatalf("live = %d but %d slots are used", tab.live, used)
	}
	// Every read-share list is either owned by exactly one live promoted
	// cell or retired; evidence may only exist for live addresses.
	owner := make(map[uint64]bool)
	for i := range tab.flags {
		if tab.flags[i]&cellMulti != 0 {
			id := tab.data[i].r.seq
			if id >= uint64(len(tab.lists)) || owner[id] {
				t.Fatalf("read-share list %d out of range or owned twice", id)
			}
			owner[id] = true
		}
	}
	for _, id := range tab.freeLists {
		if owner[id] || len(tab.lists[id]) != 0 {
			t.Fatalf("retired read-share list %d still owned or non-empty", id)
		}
		owner[id] = true
	}
	if len(owner) != len(tab.lists) {
		t.Fatalf("%d read-share lists, %d owned or retired: one leaked", len(tab.lists), len(owner))
	}
	for addr := range tab.evs {
		if !seen[addr] {
			t.Fatalf("evidence leaked for dead address %#x", addr)
		}
	}
}

func TestTableInsertLookupGrow(t *testing.T) {
	tab := newTable(0, nil)
	const n = 10_000
	for i := uint64(1); i <= n; i++ {
		idx := tab.cell(i * 8)
		if tab.flags[idx] != cellUsed {
			t.Fatalf("fresh cell for %#x has flags %#x", i*8, tab.flags[idx])
		}
		tab.data[idx].w.seq = i // marker
		tab.flags[idx] |= cellWrite
	}
	if tab.live != n {
		t.Fatalf("live = %d, want %d", tab.live, n)
	}
	if tab.evictions != 0 {
		t.Fatalf("unbounded table evicted %d cells", tab.evictions)
	}
	for i := uint64(1); i <= n; i++ {
		idx := tab.cell(i * 8)
		if tab.data[idx].w.seq != i {
			t.Fatalf("cell %#x lost its state across growth: seq = %d, want %d",
				i*8, tab.data[idx].w.seq, i)
		}
	}
	if tab.live != n {
		t.Fatalf("lookups created cells: live = %d, want %d", tab.live, n)
	}
	auditTable(t, &tab)
}

// TestTableCapacityAfterInserts pins the unbounded table's growth rule:
// it doubles only past 3/4 load, so n cells cost the smallest power of
// two (at least 64) slots holding n at that load. Every slot carries a
// 64-byte data cell; a sparser rule multiplies the detector's heap.
func TestTableCapacityAfterInserts(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{1, 64}, {48, 64}, {49, 128}, {10_000, 16_384}, {12_288, 16_384}, {12_289, 32_768},
	} {
		tab := newTable(0, nil)
		for i := 1; i <= c.n; i++ {
			tab.cell(uint64(i) * 8)
		}
		if got := len(tab.keys); got != c.want {
			t.Errorf("%d inserts: capacity %d, want %d", c.n, got, c.want)
		}
		if len(tab.flags) != len(tab.keys) || len(tab.data) != len(tab.keys) {
			t.Errorf("%d inserts: key/flag/data arrays disagree: %d/%d/%d",
				c.n, len(tab.keys), len(tab.flags), len(tab.data))
		}
	}
}

func TestTableFindHomeSlot(t *testing.T) {
	tab := newTable(0, nil)
	if got := tab.find(0x1234); got != -1 {
		t.Fatalf("find on an empty table returned slot %d", got)
	}
	idx := tab.cell(0x1234)
	if got := tab.find(0x1234); got >= 0 && got != idx {
		t.Fatalf("find returned slot %d, cell claimed %d", got, idx)
	}
	// find is allowed to miss on displaced cells but must never claim a
	// slot whose key differs.
	for i := uint64(1); i <= 1000; i++ {
		tab.cell(i * 31)
	}
	for i := uint64(1); i <= 1000; i++ {
		addr := i * 31
		if got := tab.find(addr); got >= 0 && tab.keys[got] != addr {
			t.Fatalf("find(%#x) returned slot %d holding %#x", addr, got, tab.keys[got])
		}
	}
}

func TestTableEvictionAccounting(t *testing.T) {
	tab := newTable(4, nil)
	for i := uint64(1); i <= 10; i++ {
		tab.cell(i << 4)
	}
	if tab.live != 4 {
		t.Fatalf("live = %d at bound 4", tab.live)
	}
	if tab.evictions != 6 {
		t.Fatalf("evictions = %d, want 6 (10 inserts into a 4-cell table)", tab.evictions)
	}
	auditTable(t, &tab)
	// Re-touching a survivor must not evict.
	before := tab.evictions
	for i := range tab.flags {
		if tab.flags[i] != 0 {
			tab.cell(tab.keys[i])
		}
	}
	if tab.evictions != before {
		t.Fatalf("lookups of live addresses evicted: %d -> %d", before, tab.evictions)
	}
	if tab.live != 4 {
		t.Fatalf("live = %d after re-lookups", tab.live)
	}
}

func TestTableEvictionNeverEvictsNewcomer(t *testing.T) {
	// Each insert at the bound must keep the address just inserted: the
	// sweep skips the claimed slot (and follows it if compaction moved
	// it).
	tab := newTable(2, nil)
	for i := uint64(1); i <= 64; i++ {
		addr := i * 104729 // spread across slots
		tab.cell(addr)
		found := false
		for j := range tab.flags {
			if tab.flags[j] != 0 && tab.keys[j] == addr {
				found = true
			}
		}
		if !found {
			t.Fatalf("insert %d: newcomer %#x was evicted immediately", i, addr)
		}
		auditTable(t, &tab)
	}
	if tab.evictions != 62 {
		t.Fatalf("evictions = %d, want 62", tab.evictions)
	}
}

func TestTableEvictionDeterministic(t *testing.T) {
	run := func() (uint64, []uint64) {
		tab := newTable(8, nil)
		for i := uint64(1); i <= 100; i++ {
			tab.cell(i * 31)
		}
		var survivors []uint64
		for i := range tab.flags {
			if tab.flags[i] != 0 {
				survivors = append(survivors, tab.keys[i])
			}
		}
		return tab.evictions, survivors
	}
	ev1, s1 := run()
	ev2, s2 := run()
	if ev1 != ev2 {
		t.Fatalf("eviction counts differ across identical runs: %d vs %d", ev1, ev2)
	}
	if len(s1) != len(s2) {
		t.Fatalf("survivor counts differ: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatalf("survivor %d differs: %#x vs %#x", i, s1[i], s2[i])
		}
	}
}

func TestTableEvictionResetsState(t *testing.T) {
	tab := newTable(1, nil)
	idx := tab.cell(0x10)
	tab.setRS(idx, append(tab.promote(idx), mrec{rec: rec{tid: 1}}))
	tab.flags[idx] |= cellWrite | cellMulti
	tab.data[idx].w.seq = 99
	tab.ev(0x10, true).w = "stale"
	// Inserting a second address evicts the first; coming back to the
	// first must yield a virgin cell with no side state.
	tab.cell(0x20)
	idx = tab.cell(0x10)
	if tab.flags[idx] != cellUsed || tab.data[idx].w.seq != 0 {
		t.Fatalf("re-inserted cell kept stale state: flags=%#x seq=%d",
			tab.flags[idx], tab.data[idx].w.seq)
	}
	if len(tab.freeLists) != len(tab.lists) {
		t.Fatalf("evicted cell's read-share list not retired: %d lists, %d free", len(tab.lists), len(tab.freeLists))
	}
	auditTable(t, &tab)
	if p := tab.ev(0x10, false); p != nil && (p.w != nil || p.r != nil) {
		t.Fatalf("re-inserted cell kept stale evidence: %+v", p)
	}
	if tab.evictions != 2 {
		t.Fatalf("evictions = %d, want 2", tab.evictions)
	}
}
