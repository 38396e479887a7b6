package hb

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"literace/internal/trace"
)

// raceKey normalizes a dynamic race to a comparable static identity.
type raceKey struct {
	a, b struct {
		f, i int32
	}
}

func keyOf(r DynamicRace) raceKey {
	var k raceKey
	k.a.f, k.a.i = r.PrevPC.Func, r.PrevPC.Index
	k.b.f, k.b.i = r.CurPC.Func, r.CurPC.Index
	if k.b.f < k.a.f || (k.b.f == k.a.f && k.b.i < k.a.i) {
		k.a, k.b = k.b, k.a
	}
	return k
}

func staticSet(races []DynamicRace) map[raceKey]int {
	out := make(map[raceKey]int)
	for _, r := range races {
		out[keyOf(r)]++
	}
	return out
}

// randomLog builds a random but well-formed multithreaded log: a mix of
// lock/unlock (paired per thread so lock semantics are plausible),
// atomics, fork edges, and reads/writes over a small address pool.
func randomLog(seed int64) *trace.Log {
	r := rand.New(rand.NewSource(seed))
	b := newLogBuilder()
	nthreads := int32(2 + r.Intn(4))
	locks := []uint64{0x100, 0x110, 0x120}
	addrs := []uint64{0x200, 0x201, 0x202, 0x203}
	held := make(map[int32]uint64) // thread -> currently held lock (0 = none)

	// Fork edges from thread 1 to the others.
	for tid := int32(2); tid <= nthreads; tid++ {
		tv := trace.ThreadVar(tid)
		b.sync(1, trace.KindRelease, trace.OpFork, tv)
		b.sync(tid, trace.KindAcquire, trace.OpForkChild, tv)
	}

	n := 150 + r.Intn(150)
	for i := 0; i < n; i++ {
		tid := 1 + r.Int31n(nthreads)
		switch r.Intn(6) {
		case 0:
			if held[tid] == 0 {
				lk := locks[r.Intn(len(locks))]
				held[tid] = lk
				b.sync(tid, trace.KindAcquire, trace.OpLock, lk)
			}
		case 1:
			if lk := held[tid]; lk != 0 {
				held[tid] = 0
				b.sync(tid, trace.KindRelease, trace.OpUnlock, lk)
			}
		case 2:
			b.sync(tid, trace.KindAcqRel, trace.OpCas, addrs[r.Intn(len(addrs))]+0x1000)
		case 3, 4:
			b.mem(tid, trace.KindWrite, addrs[r.Intn(len(addrs))], 0xFFFF)
		default:
			b.mem(tid, trace.KindRead, addrs[r.Intn(len(addrs))], 0xFFFF)
		}
	}
	return b.log()
}

// wideRandomLog builds a well-formed log over 65 to 300 threads: fork
// edges from thread 1 to every other thread, one lock per group of
// threads guarding its group's word, two CAS vars any thread may hit,
// unguarded accesses over a small pool, and the last few threads joined
// back into thread 1. The groups and the CAS vars spread what threads
// know, so clocks carry long lists of nonzero entries, which randomLog's
// five threads never do.
func wideRandomLog(seed int64) *trace.Log {
	r := rand.New(rand.NewSource(seed))
	b := newLogBuilder()
	nthreads := int32(65 + r.Intn(236))
	groups := int32(2 + r.Intn(15))
	cas := []uint64{0x3000, 0x3010}
	addrs := []uint64{0x200, 0x201, 0x202, 0x203}
	held := make(map[int32]uint64) // thread -> currently held lock (0 = none)

	for tid := int32(2); tid <= nthreads; tid++ {
		tv := trace.ThreadVar(tid)
		b.sync(1, trace.KindRelease, trace.OpFork, tv)
		b.sync(tid, trace.KindAcquire, trace.OpForkChild, tv)
	}
	n := 1500 + r.Intn(1500)
	for i := 0; i < n; i++ {
		tid := 1 + r.Int31n(nthreads)
		g := uint64(tid % groups)
		switch r.Intn(16) {
		case 0, 1:
			if held[tid] == 0 {
				held[tid] = 0x1000 + 0x10*g
				b.sync(tid, trace.KindAcquire, trace.OpLock, held[tid])
			}
		case 2, 3:
			if lk := held[tid]; lk != 0 {
				held[tid] = 0
				b.sync(tid, trace.KindRelease, trace.OpUnlock, lk)
			}
		case 4:
			b.sync(tid, trace.KindAcqRel, trace.OpCas, cas[r.Intn(len(cas))])
		case 5, 6, 7, 8:
			// The group's word, guarded by its lock when held.
			kind := trace.KindRead
			if r.Intn(2) == 0 {
				kind = trace.KindWrite
			}
			b.mem(tid, kind, 0x400+g, 0xFFFF)
		case 9:
			b.mem(tid, trace.KindWrite, addrs[r.Intn(len(addrs))], 0xFFFF)
		default:
			b.mem(tid, trace.KindRead, addrs[r.Intn(len(addrs))], 0xFFFF)
		}
	}
	for tid := nthreads; tid > nthreads-4; tid-- {
		tv := trace.ThreadVar(tid)
		b.sync(tid, trace.KindRelease, trace.OpThreadEnd, tv)
		b.sync(1, trace.KindAcquire, trace.OpJoin, tv)
	}
	return b.log()
}

// detectBoth runs log through the production detector and the
// reference detector under identical options.
func detectBoth(t testing.TB, log *trace.Log, opts Options) (got, want *Result) {
	t.Helper()
	got, err := Detect(log, opts)
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	want, err = DetectReference(log, opts)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	return got, want
}

// assertSameResult demands that the production detector report exactly
// what the reference reports: the whole Result — race order, Seq
// ordinals, unconfirmed tags, evidence, near-miss rows and counters —
// under reflect.DeepEqual. Only the epoch core's own statistics, which
// the reference has no counterpart for, are checked separately.
func assertSameResult(t testing.TB, name string, got, want *Result) {
	t.Helper()
	if got.Epoch == nil || got.Epoch.Accesses != got.MemOps {
		t.Fatalf("%s: engine statistics %+v do not account for %d analyzed accesses", name, got.Epoch, got.MemOps)
	}
	g := *got
	g.Epoch = nil
	if reflect.DeepEqual(&g, want) {
		return
	}
	for i := 0; i < len(g.Races) && i < len(want.Races); i++ {
		if !reflect.DeepEqual(g.Races[i], want.Races[i]) {
			t.Fatalf("%s: race %d diverges:\n  detector:  %+v\n  reference: %+v", name, i, g.Races[i], want.Races[i])
		}
	}
	g.Races, g.NearMisses = nil, nil
	t.Fatalf("%s: results diverge:\n  detector:  %+v (%d races, near misses %+v)\n  reference: %+v (%d races, near misses %+v)",
		name, g, len(got.Races), got.NearMisses, *want, len(want.Races), want.NearMisses)
}

// TestDifferentialDetectors cross-checks the epoch-based detector
// against the full-vector-clock reference on random logs.
func TestDifferentialDetectors(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		got, want := detectBoth(t, randomLog(seed), Options{SamplerBit: AllEvents})
		assertSameResult(t, fmt.Sprintf("seed %d", seed), got, want)
	}
	for seed := int64(0); seed < 12; seed++ {
		got, want := detectBoth(t, wideRandomLog(seed), Options{SamplerBit: AllEvents})
		assertSameResult(t, fmt.Sprintf("wide seed %d", seed), got, want)
	}
}

// TestEpochMatchesVCRandom holds the epoch core, selected through the
// documented no-op Options.Engine, to the full-vector-clock reference
// on random logs, and checks the selector changes nothing.
func TestEpochMatchesVCRandom(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		log := randomLog(seed)
		name := fmt.Sprintf("seed %d", seed)
		got, want := detectBoth(t, log, Options{SamplerBit: AllEvents, Engine: EngineEpoch})
		assertSameResult(t, name, got, want)
		plain, err := Detect(log, Options{SamplerBit: AllEvents})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, got) {
			t.Fatalf("%s: Options.Engine changed the result", name)
		}
	}
}

// TestDifferentialWithMaskFiltering repeats the cross-check under sampler
// filtering (random masks).
func TestDifferentialWithMaskFiltering(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		r := rand.New(rand.NewSource(seed ^ 0x5aa5))
		log := randomLog(seed)
		// Scatter random masks over the memory events.
		for _, evs := range log.Threads {
			for i := range evs {
				if evs[i].Kind.IsMem() {
					evs[i].Mask = uint32(r.Intn(4))
				}
			}
		}
		for bit := 0; bit < 2; bit++ {
			got, want := detectBoth(t, log, Options{SamplerBit: bit, NearMissMargin: DefaultNearMissMargin})
			assertSameResult(t, fmt.Sprintf("seed %d bit %d", seed, bit), got, want)
		}
	}
}

// TestEpochMatchesVCWithEvidenceAndNearMisses holds the epoch core to
// the full-vector-clock reference with evidence capture and near-miss
// analytics on.
func TestEpochMatchesVCWithEvidenceAndNearMisses(t *testing.T) {
	opts := Options{
		SamplerBit:     AllEvents,
		Evidence:       true,
		NearMissMargin: DefaultNearMissMargin,
	}
	for _, set := range []struct {
		name  string
		seeds int64
		log   func(int64) *trace.Log
	}{{"seed", 60, randomLog}, {"wide seed", 8, wideRandomLog}} {
		var sawEvidence, sawNearMiss bool
		for seed := int64(0); seed < set.seeds; seed++ {
			got, want := detectBoth(t, set.log(seed), opts)
			assertSameResult(t, fmt.Sprintf("%s %d", set.name, seed), got, want)
			sawEvidence = sawEvidence || len(got.Races) > 0 && got.Races[0].PrevEvidence != nil
			sawNearMiss = sawNearMiss || len(got.NearMisses) > 0
		}
		if !sawEvidence || !sawNearMiss {
			t.Fatalf("vacuous over the %ss: evidence seen %v, near misses seen %v", set.name, sawEvidence, sawNearMiss)
		}
	}
}

func TestEpochMatchesVCDegraded(t *testing.T) {
	// Degrade both detectors at the same replay midpoint: unconfirmed
	// tagging must line up exactly.
	var sawUnconfirmed bool
	for seed := int64(0); seed < 40; seed++ {
		log := randomLog(seed)
		total := 0
		if err := Replay(log, func(trace.Event) error {
			total++
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		opts := Options{SamplerBit: AllEvents, Evidence: true, NearMissMargin: DefaultNearMissMargin}
		run := func(process func(trace.Event), markDegraded func()) {
			n := 0
			if err := Replay(log, func(e trace.Event) error {
				if n == total/2 {
					markDegraded()
				}
				n++
				process(e)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		d, ref := NewDetector(opts), NewReferenceDetector(opts)
		run(d.Process, d.MarkDegraded)
		run(ref.Process, ref.MarkDegraded)
		assertSameResult(t, fmt.Sprintf("seed %d", seed), d.Result(), ref.Result())
		if ref.Result().Unconfirmed > 0 {
			sawUnconfirmed = true
		}
	}
	if !sawUnconfirmed {
		t.Fatal("no seed produced an unconfirmed race; the test is vacuous")
	}
}

// boundedNeverInvents checks a bounded-table detector against the
// reference: its static race multiset must be contained in the
// reference's.
func boundedNeverInvents(t testing.TB, name string, bounded, want *Result) {
	t.Helper()
	ws := staticSet(want.Races)
	for k, n := range staticSet(bounded.Races) {
		if n > ws[k] {
			t.Fatalf("%s: bounded table reported %v %d times, reference %d — false positive", name, k, n, ws[k])
		}
	}
}

func TestEpochBoundedTableNeverInventsRaces(t *testing.T) {
	// A bounded shadow table loses history on eviction. That may hide
	// races (false negatives, like sampling) but must never invent one.
	var sawEviction, sawMiss bool
	for seed := int64(0); seed < 60; seed++ {
		log := randomLog(seed)
		want, err := DetectReference(log, Options{SamplerBit: AllEvents})
		if err != nil {
			t.Fatal(err)
		}
		got, err := Detect(log, Options{SamplerBit: AllEvents, ShadowMaxCells: 2})
		if err != nil {
			t.Fatal(err)
		}
		sawEviction = sawEviction || got.Epoch.Evictions > 0
		sawMiss = sawMiss || got.NumRaces < want.NumRaces
		boundedNeverInvents(t, fmt.Sprintf("seed %d", seed), got, want)
	}
	if !sawEviction {
		t.Fatal("no seed triggered an eviction; the bound is not exercised")
	}
	if !sawMiss {
		t.Log("note: evictions never cost a race on these seeds")
	}
}

// FuzzDetectorParity replays random seeded traces (wide ones over 65 to
// 300 threads when wide is set) through the production detector and the
// reference and asserts identical Results, with and without evidence
// capture, plus the no-false-positive containment property for bounded
// shadow tables.
func FuzzDetectorParity(f *testing.F) {
	f.Add(int64(1), uint16(0), false, false)
	f.Add(int64(42), uint16(0), true, false)
	f.Add(int64(7), uint16(3), true, false)
	f.Add(int64(1234567), uint16(16), false, false)
	f.Add(int64(3), uint16(0), true, true)
	f.Add(int64(11), uint16(8), false, true)
	f.Fuzz(func(t *testing.T, seed int64, maxCells uint16, evidence, wide bool) {
		log := randomLog(seed)
		if wide {
			log = wideRandomLog(seed)
		}
		opts := Options{SamplerBit: AllEvents, Evidence: evidence, NearMissMargin: DefaultNearMissMargin}
		got, want := detectBoth(t, log, opts)
		name := fmt.Sprintf("seed %d", seed)
		assertSameResult(t, name, got, want)
		if maxCells > 0 {
			opts.ShadowMaxCells = int(maxCells)
			bounded, err := Detect(log, opts)
			if err != nil {
				t.Fatal(err)
			}
			boundedNeverInvents(t, fmt.Sprintf("%s maxCells %d", name, maxCells), bounded, want)
		}
	})
}

// TestReferenceOnPaperExamples sanity-checks the reference detector on the
// Figure 1 scenarios directly.
func TestReferenceOnPaperExamples(t *testing.T) {
	b := newLogBuilder()
	b.sync(1, trace.KindAcquire, trace.OpLock, lockVar)
	b.mem(1, trace.KindWrite, x, 0xFFFF)
	b.sync(1, trace.KindRelease, trace.OpUnlock, lockVar)
	b.sync(2, trace.KindAcquire, trace.OpLock, lockVar)
	b.mem(2, trace.KindWrite, x, 0xFFFF)
	b.sync(2, trace.KindRelease, trace.OpUnlock, lockVar)
	res, err := DetectReference(b.log(), Options{SamplerBit: AllEvents})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRaces != 0 {
		t.Errorf("reference reported %d races on ordered writes", res.NumRaces)
	}

	b2 := newLogBuilder()
	b2.mem(1, trace.KindWrite, x, 0xFFFF)
	b2.mem(2, trace.KindWrite, x, 0xFFFF)
	res, err = DetectReference(b2.log(), Options{SamplerBit: AllEvents})
	if err != nil {
		t.Fatal(err)
	}
	if res.NumRaces != 1 {
		t.Errorf("reference reported %d races on unordered writes", res.NumRaces)
	}
}
