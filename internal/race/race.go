// Package race groups dynamic race reports into static data races and
// implements the paper's evaluation metrics: a static race is an unordered
// pair of program counters (§5.3, "we group each data race ... based on
// the pair of instructions that participate"), classified rare or frequent
// by its dynamic occurrence rate per million non-stack memory instructions
// (Table 4), with sampler quality measured as the detection rate against
// the full-logging ground truth (Figures 4 and 5).
package race

import (
	"fmt"
	"sort"
	"strings"

	"literace/internal/hb"
	"literace/internal/lir"
)

// Key identifies a static race: an unordered, normalized PC pair.
type Key struct {
	A, B lir.PC
}

// KeyOf normalizes a dynamic race's instruction pair.
func KeyOf(r hb.DynamicRace) Key {
	a, b := r.PrevPC, r.CurPC
	if b.Less(a) {
		a, b = b, a
	}
	return Key{A: a, B: b}
}

func (k Key) String() string { return fmt.Sprintf("%v<->%v", k.A, k.B) }

// Static is one static data race with its dynamic statistics.
type Static struct {
	Key   Key
	Count uint64 // dynamic occurrences

	// Confirmed counts the dynamic occurrences observed before any
	// degradation (see hb.DynamicRace.Unconfirmed). A static race with
	// Confirmed == 0 was only ever seen through weakened orderings and
	// may be a false positive.
	Confirmed uint64

	// Write-write vs read-write composition, for reporting.
	WriteWrite uint64
	ReadWrite  uint64

	// SampleAddr is one racing address, for debugging reports, and
	// SampleTIDs the matching thread pair. They come from the first
	// *confirmed* dynamic occurrence when one exists — an occurrence
	// covered by the paper's no-false-positive guarantee — falling back
	// to the first sighting for all-unconfirmed races. Batch and
	// streaming detection both fold races in replay order, so the
	// samples are stable per input.
	SampleAddr uint64
	// SampleTIDs is one racing thread pair (see SampleAddr).
	SampleTIDs [2]int32

	// sampleConfirmed records whether the samples above already come
	// from a confirmed occurrence.
	sampleConfirmed bool
}

// RatePerMillion returns dynamic occurrences per million non-stack memory
// instructions, the paper's rarity metric.
func (s *Static) RatePerMillion(nonStackMemOps uint64) float64 {
	if nonStackMemOps == 0 {
		return 0
	}
	return float64(s.Count) * 1e6 / float64(nonStackMemOps)
}

// RareThreshold is the Table 4 cutoff: a static race is rare when it
// manifests fewer than 3 times per million non-stack memory instructions.
const RareThreshold = 3.0

// Rare reports whether the race is rare under the paper's rule.
func (s *Static) Rare(nonStackMemOps uint64) bool {
	return s.RatePerMillion(nonStackMemOps) < RareThreshold
}

// Set accumulates dynamic races into static groups.
type Set struct {
	m map[Key]*Static
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{m: make(map[Key]*Static)} }

// Add folds one dynamic race into the set.
func (s *Set) Add(r hb.DynamicRace) {
	k := KeyOf(r)
	st := s.m[k]
	if st == nil {
		st = &Static{Key: k, SampleAddr: r.Addr, SampleTIDs: [2]int32{r.PrevTID, r.CurTID}}
		s.m[k] = st
	}
	// Prefer the first confirmed occurrence's address and threads over
	// an earlier unconfirmed sighting: a report's sample should point at
	// evidence the no-false-positive guarantee stands behind.
	if !r.Unconfirmed && !st.sampleConfirmed {
		st.SampleAddr = r.Addr
		st.SampleTIDs = [2]int32{r.PrevTID, r.CurTID}
		st.sampleConfirmed = true
	}
	st.Count++
	if !r.Unconfirmed {
		st.Confirmed++
	}
	if r.PrevWrite && r.CurWrite {
		st.WriteWrite++
	} else {
		st.ReadWrite++
	}
}

// Unconfirmed reports whether the race was only ever observed after a
// degradation weakened the happens-before orderings.
func (s *Static) Unconfirmed() bool { return s.Confirmed == 0 }

// AddResult folds every dynamic race of a detection result into the set.
func (s *Set) AddResult(res *hb.Result) {
	for _, r := range res.Races {
		s.Add(r)
	}
}

// Len returns the number of static races.
func (s *Set) Len() int { return len(s.m) }

// Contains reports whether the set has the static race k.
func (s *Set) Contains(k Key) bool {
	_, ok := s.m[k]
	return ok
}

// Get returns the static race for k, or nil.
func (s *Set) Get(k Key) *Static { return s.m[k] }

// Races returns all static races ordered by key.
func (s *Set) Races() []*Static {
	out := make([]*Static, 0, len(s.m))
	for _, st := range s.m {
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Key, out[j].Key
		if a.A != b.A {
			return a.A.Less(b.A)
		}
		return a.B.Less(b.B)
	})
	return out
}

// SplitConfirmed partitions the races into confirmed (at least one
// occurrence observed with intact orderings — covered by the paper's
// no-false-positive guarantee) and unconfirmed.
func (s *Set) SplitConfirmed() (confirmed, unconfirmed []*Static) {
	for _, st := range s.Races() {
		if st.Unconfirmed() {
			unconfirmed = append(unconfirmed, st)
		} else {
			confirmed = append(confirmed, st)
		}
	}
	return confirmed, unconfirmed
}

// Split partitions the races into rare and frequent per the Table 4 rule.
func (s *Set) Split(nonStackMemOps uint64) (rare, frequent []*Static) {
	for _, st := range s.Races() {
		if st.Rare(nonStackMemOps) {
			rare = append(rare, st)
		} else {
			frequent = append(frequent, st)
		}
	}
	return rare, frequent
}

// DetectionRate returns |found ∩ truth| / |truth| over the given subset of
// ground-truth races (pass truth.Races() for the overall rate, or the rare
// or frequent partition for Figure 5). Returns 1 for an empty truth set,
// matching the convention that there was nothing to miss.
func DetectionRate(found *Set, truth []*Static) float64 {
	if len(truth) == 0 {
		return 1
	}
	hit := 0
	for _, st := range truth {
		if found.Contains(st.Key) {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// Report renders the set as a human-readable table. resolve maps function
// indices to names; pass nil to print raw indices.
func (s *Set) Report(nonStackMemOps uint64, resolve func(int32) string) string {
	name := func(pc lir.PC) string {
		if resolve == nil {
			return pc.String()
		}
		return fmt.Sprintf("%s:%d", resolve(pc.Func), pc.Index)
	}
	var b strings.Builder
	rare, freq := s.Split(nonStackMemOps)
	fmt.Fprintf(&b, "%d static data races (%d rare, %d frequent)\n", s.Len(), len(rare), len(freq))
	if _, unconf := s.SplitConfirmed(); len(unconf) > 0 {
		fmt.Fprintf(&b, "%d unconfirmed (first observed after log damage; may be false positives)\n", len(unconf))
	}
	for _, st := range s.Races() {
		class := "frequent"
		if st.Rare(nonStackMemOps) {
			class = "rare"
		}
		suffix := ""
		if st.Unconfirmed() {
			suffix = " UNCONFIRMED"
		}
		fmt.Fprintf(&b, "  %-9s %s <-> %s  count=%d (ww=%d rw=%d) addr=%#x threads=%d,%d%s\n",
			class, name(st.Key.A), name(st.Key.B), st.Count, st.WriteWrite, st.ReadWrite,
			st.SampleAddr, st.SampleTIDs[0], st.SampleTIDs[1], suffix)
	}
	return b.String()
}
