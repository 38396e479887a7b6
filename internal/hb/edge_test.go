package hb

import (
	"testing"

	"literace/internal/trace"
)

// TestOnEdgeCrossThread checks that a release -> acquire pair across
// threads fires exactly one edge carrying the release's identity.
func TestOnEdgeCrossThread(t *testing.T) {
	b := newLogBuilder()
	b.sync(1, trace.KindAcquire, trace.OpLock, lockVar)
	b.sync(1, trace.KindRelease, trace.OpUnlock, lockVar)
	b.sync(2, trace.KindAcquire, trace.OpLock, lockVar)
	b.sync(2, trace.KindRelease, trace.OpUnlock, lockVar)

	var edges []Edge
	_, err := Detect(b.log(), Options{
		SamplerBit: AllEvents,
		OnEdge:     func(e Edge) { edges = append(edges, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 {
		t.Fatalf("edges = %d, want 1 (same-thread pairs must not report): %+v", len(edges), edges)
	}
	e := edges[0]
	if e.FromTID != 1 || e.ToTID != 2 || e.Var != lockVar {
		t.Errorf("edge = %+v", e)
	}
	if e.Counter != trace.CounterOf(lockVar) || e.TS == 0 {
		t.Errorf("edge release identity = c%d ts=%d", e.Counter, e.TS)
	}
}

// TestOnEdgeAcqRel checks both halves of an acquire-release op: the
// acquire half consumes an earlier cross-thread release, and the
// release half seeds an edge for the next acquirer.
func TestOnEdgeAcqRel(t *testing.T) {
	b := newLogBuilder()
	b.sync(1, trace.KindAcqRel, trace.OpNotify, lockVar)
	b.sync(2, trace.KindAcqRel, trace.OpNotify, lockVar)
	b.sync(3, trace.KindAcquire, trace.OpWait, lockVar)

	var edges []Edge
	_, err := Detect(b.log(), Options{
		SamplerBit: AllEvents,
		OnEdge:     func(e Edge) { edges = append(edges, e) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 2 {
		t.Fatalf("edges = %d, want 2: %+v", len(edges), edges)
	}
	if edges[0].FromTID != 1 || edges[0].ToTID != 2 {
		t.Errorf("first edge = %+v", edges[0])
	}
	if edges[1].FromTID != 2 || edges[1].ToTID != 3 {
		t.Errorf("second edge = %+v", edges[1])
	}
}

// TestOnEdgeNilIsFree confirms the detector allocates no release map
// when OnEdge is unset.
func TestOnEdgeNilIsFree(t *testing.T) {
	d := NewDetector(Options{SamplerBit: AllEvents})
	if d.clk.lastRel != nil {
		t.Error("lastRel allocated without OnEdge")
	}
}
