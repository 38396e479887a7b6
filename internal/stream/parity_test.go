package stream_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"literace/internal/core"
	"literace/internal/hb"
	"literace/internal/instrument"
	"literace/internal/interp"
	"literace/internal/sampler"
	"literace/internal/stream"
	"literace/internal/trace"
	"literace/internal/workloads"
)

// genLog executes benchmark b at the given scale and seed under full
// logging and returns the encoded LTRC2 log — the same recipe the
// harness uses for its ground-truth runs.
func genLog(t *testing.T, b workloads.Benchmark, seed int64, scale int) []byte {
	t.Helper()
	mod, err := b.Module(scale)
	if err != nil {
		t.Fatal(err)
	}
	rw, _, err := instrument.Rewrite(mod, instrument.Options{Mode: instrument.ModeSampled})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.NewRuntime(core.Config{
		NumFuncs:      len(mod.Funcs),
		Primary:       sampler.NewFull(),
		Writer:        w,
		EnableMemLog:  true,
		EnableSyncLog: true,
		Seed:          seed,
		Cost:          core.DefaultCostModel(),
	})
	if err != nil {
		t.Fatal(err)
	}
	mach, err := interp.New(rw, interp.Options{Seed: seed, Runtime: rt})
	if err != nil {
		t.Fatal(err)
	}
	res, err := mach.Run()
	if err != nil {
		t.Fatalf("%s seed %d: %v", b.Key, seed, err)
	}
	if err := w.Close(mach.Meta(res)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// mustBench resolves a benchmark key or fails the test.
func mustBench(t *testing.T, key string) workloads.Benchmark {
	t.Helper()
	b, ok := workloads.ByKey(key)
	if !ok {
		t.Fatalf("unknown benchmark %q", key)
	}
	return b
}

// runPipeline feeds data through a streaming pipeline in pieces of the
// given sizes (cycled; {0} means all at once).
func runPipeline(t *testing.T, data []byte, sizes []int) *stream.Result {
	t.Helper()
	return runPipelineOpts(t, data, stream.Options{}, sizes)
}

// runPipelineOpts is runPipeline with explicit pipeline options.
func runPipelineOpts(t *testing.T, data []byte, opts stream.Options, sizes []int) *stream.Result {
	t.Helper()
	p := stream.New(opts)
	for off, i := 0, 0; off < len(data); i++ {
		n := sizes[i%len(sizes)]
		if n <= 0 || n > len(data)-off {
			n = len(data) - off
		}
		if err := p.Feed(data[off : off+n]); err != nil {
			t.Fatalf("feed: %v", err)
		}
		off += n
	}
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkParity asserts the streaming result matches a batch pass bit for
// bit: the race list (order and evidence included), the counts, the
// analyzed-op totals, the near-miss rows, and the shadow engine's
// statistics.
func checkParity(t *testing.T, name string, got *stream.Result, want *hb.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Races, want.Races) {
		t.Fatalf("%s: streaming races differ from batch\nstream: %+v\nbatch:  %+v", name, got.Races, want.Races)
	}
	if !reflect.DeepEqual(got.NearMisses, want.NearMisses) {
		t.Fatalf("%s: near-miss rows differ\nstream: %+v\nbatch:  %+v", name, got.NearMisses, want.NearMisses)
	}
	if got.Epoch == nil || want.Epoch == nil || *got.Epoch != *want.Epoch {
		t.Fatalf("%s: shadow engine statistics differ: stream %+v, batch %+v", name, got.Epoch, want.Epoch)
	}
	if got.NumRaces != want.NumRaces || got.Unconfirmed != want.Unconfirmed || got.Degraded != want.Degraded {
		t.Fatalf("%s: counts differ: stream %d/%d unconfirmed (degraded=%v), batch %d/%d (degraded=%v)",
			name, got.NumRaces, got.Unconfirmed, got.Degraded, want.NumRaces, want.Unconfirmed, want.Degraded)
	}
	if got.MemOps != want.MemOps || got.SyncOps != want.SyncOps {
		t.Fatalf("%s: analyzed ops differ: stream %d mem %d sync, batch %d mem %d sync",
			name, got.MemOps, got.SyncOps, want.MemOps, want.SyncOps)
	}
}

// TestStreamParityBenchmarks is the streaming acceptance gate: over
// every evaluated benchmark and three seeds, streaming detection must
// report exactly the batch result — fed whole, fed through a torn live
// tail that later completes, and dripped in small pieces with evidence
// capture and near-miss analytics on.
func TestStreamParityBenchmarks(t *testing.T) {
	for _, b := range workloads.Evaluated() {
		b := b
		t.Run(b.Key, func(t *testing.T) {
			t.Parallel()
			for _, seed := range []int64{1, 2, 3} {
				data := genLog(t, b, seed, 1)
				log, err := trace.ReadAll(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				want, err := hb.Detect(log, hb.Options{SamplerBit: hb.AllEvents})
				if err != nil {
					t.Fatal(err)
				}
				if b.Key == "apache-1" && len(want.Races) == 0 {
					t.Fatalf("seed %d produced no races; the race-list parity is vacuous", seed)
				}

				whole := runPipeline(t, data, []int{0})
				checkParity(t, "whole", whole, want)
				if !whole.Complete {
					t.Fatal("complete log not recognized as complete")
				}
				if whole.Degradation.Degraded() {
					t.Fatalf("pristine log degraded: %s", whole.Degradation.String())
				}
				if !reflect.DeepEqual(whole.Meta, log.Meta) {
					t.Fatalf("meta differs: stream %+v batch %+v", whole.Meta, log.Meta)
				}

				// A live tail: cut mid-log (usually mid-chunk), feed the
				// prefix, then the rest.
				cut := len(data) / 3
				torn := runPipeline(t, data, []int{cut, len(data) - cut})
				checkParity(t, "torn-then-completed", torn, want)

				// Fine-grained feeding must not change anything.
				drip := runPipeline(t, data, []int{4 << 10})
				checkParity(t, "drip", drip, want)

				// Forensic options: every race carries evidence and the
				// near-miss rows equal the batch table.
				fwant, err := hb.Detect(log, hb.Options{
					SamplerBit: hb.AllEvents, Evidence: true, NearMissMargin: hb.DefaultNearMissMargin,
				})
				if err != nil {
					t.Fatal(err)
				}
				forensic := runPipelineOpts(t, data, stream.Options{
					Evidence: true, NearMissMargin: hb.DefaultNearMissMargin,
				}, []int{977})
				checkParity(t, "evidence+near-miss", forensic, fwant)
				if len(fwant.Races) > 0 && fwant.Races[0].PrevEvidence == nil {
					t.Fatal("evidence pass captured no evidence")
				}
			}
		})
	}
}

// checkReference asserts the streaming result reports exactly what the
// batch full-vector-clock reference (hb.DetectReference) reports: race
// list with evidence, near-miss rows and counters. The reference keeps
// no shadow statistics, so only the stream side's are checked, against
// its own analyzed-access count.
func checkReference(t *testing.T, name string, got *stream.Result, want *hb.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Races, want.Races) {
		t.Fatalf("%s: streaming races differ from the reference\nstream:    %+v\nreference: %+v", name, got.Races, want.Races)
	}
	if !reflect.DeepEqual(got.NearMisses, want.NearMisses) {
		t.Fatalf("%s: near-miss rows differ\nstream:    %+v\nreference: %+v", name, got.NearMisses, want.NearMisses)
	}
	if got.NumRaces != want.NumRaces || got.MemOps != want.MemOps || got.SyncOps != want.SyncOps {
		t.Fatalf("%s: counters diverge: stream {r %d m %d s %d} reference {r %d m %d s %d}",
			name, got.NumRaces, got.MemOps, got.SyncOps, want.NumRaces, want.MemOps, want.SyncOps)
	}
	if got.Epoch == nil || got.Epoch.Accesses != got.MemOps {
		t.Fatalf("%s: engine statistics %+v do not account for %d analyzed accesses", name, got.Epoch, got.MemOps)
	}
}

// TestStreamEpochMatchesBatchVC is the streaming half of the reference
// parity gate: the pipeline must report the exact race list — order,
// attribution, evidence — the batch full-vector-clock reference reports
// on the same bytes, fed whole and in pieces.
func TestStreamEpochMatchesBatchVC(t *testing.T) {
	for _, key := range []string{"dryad-stdlib", "concrt-msg", "apache-1", "lkrhash"} {
		for _, seed := range []int64{1, 7} {
			data := genLog(t, mustBench(t, key), seed, 1)
			log, err := trace.ReadAll(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			want, err := hb.DetectReference(log, hb.Options{SamplerBit: hb.AllEvents, Evidence: true})
			if err != nil {
				t.Fatal(err)
			}
			for _, piece := range []int{0, 977} {
				got := runPipelineOpts(t, data, stream.Options{Evidence: true}, []int{piece})
				checkReference(t, fmt.Sprintf("%s seed %d piece %d", key, seed, piece), got, want)
			}
		}
	}
}

// TestStreamEpochNearMissParity checks the pipeline's near-miss rows
// equal the reference's table.
func TestStreamEpochNearMissParity(t *testing.T) {
	data := genLog(t, mustBench(t, "concrt-sched"), 3, 1)
	log, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	want, err := hb.DetectReference(log, hb.Options{SamplerBit: hb.AllEvents, NearMissMargin: hb.DefaultNearMissMargin})
	if err != nil {
		t.Fatal(err)
	}
	got := runPipelineOpts(t, data, stream.Options{NearMissMargin: hb.DefaultNearMissMargin}, []int{0})
	if len(want.NearMisses) == 0 {
		t.Fatal("reference found no near misses; the test is vacuous")
	}
	checkReference(t, "concrt-sched seed 3", got, want)
}

// TestStreamDamagedParity checks the degraded path: on bit-flipped and
// truncated logs the pipeline must equal Salvage + DetectDegraded — same
// races, same confirmed/unconfirmed split, same degradation accounting,
// same salvage report.
func TestStreamDamagedParity(t *testing.T) {
	b := mustBench(t, "apache-2")
	data := genLog(t, b, 2, 1)
	r := rand.New(rand.NewSource(41))
	mutants := [][]byte{data[:len(data)/2], data[:len(data)-3]}
	for i := 0; i < 12; i++ {
		mut := append([]byte(nil), data...)
		mut[64+r.Intn(len(mut)-64)] ^= 1 << uint(r.Intn(8))
		mutants = append(mutants, mut)
	}
	for i, mut := range mutants {
		slog, srep, err := trace.Salvage(bytes.NewReader(mut))
		if err != nil {
			t.Fatal(err)
		}
		want, wdeg, err := hb.DetectDegraded(slog, hb.Options{SamplerBit: hb.AllEvents})
		if err != nil {
			t.Fatal(err)
		}
		got := runPipeline(t, mut, []int{0, 777})
		checkParity(t, "damaged", got, want)
		if got.Degradation != *wdeg {
			t.Fatalf("mutant %d: degradation %+v != batch %+v", i, got.Degradation, *wdeg)
		}
		if !reflect.DeepEqual(got.Salvage, srep) {
			t.Fatalf("mutant %d: salvage report %+v != batch %+v", i, got.Salvage, srep)
		}
	}
}

// TestStreamOnRaceCallback checks the incremental reporting hook: OnRace
// delivers exactly the final race list, in the same (replay) order.
func TestStreamOnRaceCallback(t *testing.T) {
	b := mustBench(t, "apache-1")
	data := genLog(t, b, 3, 1)
	var live []hb.DynamicRace
	p := stream.New(stream.Options{
		OnRace: func(r hb.DynamicRace) { live = append(live, r) },
	})
	if err := p.Feed(data); err != nil {
		t.Fatal(err)
	}
	res, err := p.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(live, res.Races) {
		t.Fatalf("OnRace delivered %d races, result has %d; the sequences differ", len(live), len(res.Races))
	}
	if res.NumRaces == 0 {
		t.Fatal("apache workload expected to race")
	}
}

// TestStreamRejectsGarbage checks the failure path, and that a pipeline
// leaves no goroutine behind: it starts none.
func TestStreamRejectsGarbage(t *testing.T) {
	before := runtime.NumGoroutine()
	p := stream.New(stream.Options{})
	if err := p.Feed([]byte("GIF89a not a trace")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := p.Finish(); err == nil {
		t.Fatal("finish on garbage succeeded")
	}
	if err := p.Feed([]byte("x")); err == nil {
		t.Fatal("feed after finish succeeded")
	}
	if after := runtime.NumGoroutine(); after != before {
		t.Fatalf("goroutines: %d before New, %d after Finish", before, after)
	}
}
