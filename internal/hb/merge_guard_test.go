package hb

import (
	"errors"
	"testing"

	"literace/internal/trace"
)

// mergeEvents builds a tiny two-thread sync stream with dense timestamps
// so a strict merge drains it.
func mergeGuardEvents() (a, b []trace.Event) {
	a = []trace.Event{
		{TID: 0, Kind: trace.KindRelease, Addr: 1, Counter: 0, TS: 1},
		{TID: 0, Kind: trace.KindRelease, Addr: 1, Counter: 0, TS: 3},
	}
	b = []trace.Event{
		{TID: 1, Kind: trace.KindAcquire, Addr: 1, Counter: 0, TS: 2},
	}
	return a, b
}

func TestMergerAddAfterFinishErrors(t *testing.T) {
	a, b := mergeGuardEvents()
	m := NewMerger(MergerOptions{})
	if err := m.Add(0, a, len(a)); err != nil {
		t.Fatal(err)
	}
	if err := m.Add(1, b, len(b)); err != nil {
		t.Fatal(err)
	}
	var order []uint64
	fn := func(e trace.Event) error { order = append(order, e.TS); return nil }
	if err := m.Finish(eachEvent(fn)); err != nil {
		t.Fatal(err)
	}
	delivered := m.Delivered()
	if delivered != 3 {
		t.Fatalf("delivered %d events, want 3", delivered)
	}

	if err := m.Add(0, a, len(a)); !errors.Is(err, ErrAddAfterFinish) {
		t.Fatalf("Add after Finish = %v, want ErrAddAfterFinish", err)
	}
	// The rejected chunk must not have been buffered: backlog stays
	// empty and nothing more can be delivered.
	if m.Backlog() != 0 {
		t.Fatalf("backlog after rejected Add = %d, want 0", m.Backlog())
	}
	if err := m.Pump(eachEvent(fn)); err != nil {
		t.Fatal(err)
	}
	if m.Delivered() != delivered {
		t.Fatalf("rejected Add delivered events: %d -> %d", delivered, m.Delivered())
	}
}

func TestMergerDoubleFinishErrors(t *testing.T) {
	a, b := mergeGuardEvents()
	for _, degraded := range []bool{false, true} {
		var deg *Degradation
		if degraded {
			deg = &Degradation{}
		}
		m := NewMerger(MergerOptions{Degraded: deg})
		if err := m.Add(0, a, len(a)); err != nil {
			t.Fatal(err)
		}
		if err := m.Add(1, b, len(b)); err != nil {
			t.Fatal(err)
		}
		fn := func(trace.Event) error { return nil }
		if err := m.Finish(eachEvent(fn)); err != nil {
			t.Fatal(err)
		}
		if err := m.Finish(eachEvent(fn)); !errors.Is(err, ErrDoubleFinish) {
			t.Fatalf("second Finish (degraded=%v) = %v, want ErrDoubleFinish", degraded, err)
		}
	}
}

// TestMergerFailedStrictFinishStaysFinished pins that even a Finish that
// errors (strict mode, stuck stream) consumes the merger: retrying with
// more input is a misuse, not a recovery path.
func TestMergerFailedStrictFinishStaysFinished(t *testing.T) {
	m := NewMerger(MergerOptions{})
	// TS 2 with no TS 1 ever arriving: a strict merge cannot drain.
	if err := m.Add(0, []trace.Event{{TID: 0, Kind: trace.KindRelease, Addr: 1, Counter: 0, TS: 2}}, 1); err != nil {
		t.Fatal(err)
	}
	fn := func(trace.Event) error { return nil }
	if err := m.Finish(eachEvent(fn)); err == nil {
		t.Fatal("strict Finish on a stuck stream succeeded")
	}
	if err := m.Add(0, nil, 0); !errors.Is(err, ErrAddAfterFinish) {
		t.Fatalf("Add after failed Finish = %v, want ErrAddAfterFinish", err)
	}
	if err := m.Finish(eachEvent(fn)); !errors.Is(err, ErrDoubleFinish) {
		t.Fatalf("Finish after failed Finish = %v, want ErrDoubleFinish", err)
	}
}
