package literace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"literace/internal/hb"
	"literace/internal/obs"
	"literace/internal/trace"
	"literace/internal/trace/faultinject"
	"literace/internal/workloads"
)

// Detect and DetectSalvaged run the stream pipeline over their input.
// These tests pin them to the batch route — a decoded *trace.Log handed
// to hb.Detect or hb.DetectDegraded — on clean, cut, corrupted, dropped,
// duplicated and legacy logs: the same reports, the same errors, the
// same salvage accounting and the same telemetry.

// batchDetect is Detect's contract on the batch route.
func batchDetect(data []byte) (*Report, error) {
	log, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	res, err := hb.Detect(log, hb.Options{SamplerBit: hb.AllEvents})
	if err != nil {
		return nil, err
	}
	return buildReport(res, log.Meta, nil), nil
}

// batchSalvaged is DetectSalvaged's contract on the batch route.
func batchSalvaged(data []byte, reg *obs.Registry) (*Report, *trace.SalvageReport, error) {
	log, srep, err := trace.SalvageObs(bytes.NewReader(data), reg)
	if err != nil {
		return nil, nil, err
	}
	res, deg, err := hb.DetectDegraded(log, hb.Options{SamplerBit: hb.AllEvents, Obs: reg})
	if err != nil {
		return nil, srep, err
	}
	rep := buildReport(res, log.Meta, nil)
	rep.Degraded = deg.Degraded() || srep.Lossy()
	rep.DegradedSkips = deg.SlotsSkipped
	return rep, srep, nil
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// pipelineTelemetry keeps the counters and gauges both routes publish.
func pipelineTelemetry(reg *obs.Registry) map[string]float64 {
	snap := reg.Snapshot()
	out := make(map[string]float64)
	keep := func(name string) bool {
		return strings.HasPrefix(name, "trace.") || strings.HasPrefix(name, "hb.") || strings.HasPrefix(name, "shadow.")
	}
	for k, v := range snap.Counters {
		if keep(k) {
			out[k] = float64(v)
		}
	}
	for k, v := range snap.Gauges {
		if keep(k) {
			out[k] = v
		}
	}
	return out
}

func checkDetectRoutes(t *testing.T, label string, data []byte) (strictErr string) {
	t.Helper()
	got, gerr := Detect(bytes.NewReader(data), nil)
	want, werr := batchDetect(data)
	if errText(gerr) != errText(werr) {
		t.Fatalf("%s: Detect error %q, batch route %q", label, errText(gerr), errText(werr))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Detect report differs from the batch route:\n got: %s\nwant: %s", label, got, want)
	}

	greg, wreg := obs.New(), obs.New()
	gs, gsrep, gserr := DetectSalvaged(bytes.NewReader(data), nil, greg)
	ws, wsrep, wserr := batchSalvaged(data, wreg)
	if errText(gserr) != errText(wserr) {
		t.Fatalf("%s: DetectSalvaged error %q, batch route %q", label, errText(gserr), errText(wserr))
	}
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("%s: DetectSalvaged report differs from the batch route:\n got: %s\nwant: %s", label, gs, ws)
	}
	if !reflect.DeepEqual(gsrep, wsrep) {
		t.Fatalf("%s: salvage report differs:\n got: %+v\nwant: %+v", label, gsrep, wsrep)
	}
	// A failed call's registry is never published (the CLI exits
	// before writing it), so only a pass that ran is compared.
	if g, w := pipelineTelemetry(greg), pipelineTelemetry(wreg); gserr == nil && !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: telemetry differs:\n got: %v\nwant: %v", label, g, w)
	}
	return errText(gerr)
}

// toLTRC1 rewrites an LTRC2 log in the legacy format: the same thread
// chunks and trailer, without markers, sequence numbers, CRCs or
// checkpoints.
func toLTRC1(t *testing.T, data []byte) []byte {
	t.Helper()
	spans, err := trace.ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	out := []byte("LTRC1\n")
	for _, sp := range spans {
		p := sp.Start + 4 // past the marker
		_, n := binary.Uvarint(data[p:])
		p += n
		size, n := binary.Uvarint(data[p:])
		p += n
		payload := data[p : p+int(size)]
		tag := uint64(0)
		switch {
		case sp.IsCheckpoint():
			continue
		case !sp.IsMeta():
			_, n := binary.Uvarint(payload) // the chunk's sequence number
			payload = payload[n:]
			tag = sp.Tag - 1 // LTRC1 numbers threads from 1, LTRC2 from 2
		}
		out = binary.AppendUvarint(out, tag)
		out = binary.AppendUvarint(out, uint64(len(payload)))
		out = append(out, payload...)
	}
	return out
}

// longCorpusLog is the crash corpus program run long enough that every
// thread flushes many chunks, so cuts, flips, drops and duplicates land
// between and inside chunks of interleaved threads.
func longCorpusLog(t *testing.T) []byte {
	t.Helper()
	p, err := Assemble("crash-long", strings.Replace(crashProgram, "movi r5, 12", "movi r5, 2000", 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Instrument(); err != nil {
		t.Fatal(err)
	}
	var log bytes.Buffer
	if _, err := p.Run(Config{Sampler: "Full", Seed: 3, LogTo: &log}); err != nil {
		t.Fatal(err)
	}
	return log.Bytes()
}

func TestDetectRouteParity(t *testing.T) {
	short, _ := crashCorpusLog(t)
	for name, data := range map[string][]byte{"corpus": short, "long corpus": longCorpusLog(t)} {
		t.Run(name, func(t *testing.T) { checkDetectRouteCorpus(t, data) })
	}
}

func checkDetectRouteCorpus(t *testing.T, data []byte) {
	var strictErrs, clean int
	check := func(label string, in []byte) {
		if checkDetectRoutes(t, label, in) != "" {
			strictErrs++
		} else {
			clean++
		}
	}
	check("pristine", data)
	for _, cut := range faultinject.Boundaries(data) {
		check(fmt.Sprintf("cut at %d", cut), faultinject.TruncateAt(data, cut))
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 40; i++ {
		cut := rng.Intn(len(data) + 1)
		check(fmt.Sprintf("cut at %d", cut), faultinject.TruncateAt(data, cut))
	}
	for i := 0; i < 60; i++ {
		bit := rng.Intn(len(data) * 8)
		check(fmt.Sprintf("bit %d flipped", bit), faultinject.FlipBit(data, bit))
	}
	spans, err := trace.ChunkSpans(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range spans {
		check(fmt.Sprintf("chunk %d dropped", i), faultinject.DropChunk(data, i))
		check(fmt.Sprintf("chunk %d duplicated", i), faultinject.DuplicateChunk(data, i))
	}
	v1 := toLTRC1(t, data)
	if checkDetectRoutes(t, "LTRC1", v1) != "" {
		t.Fatal("the LTRC1 rewrite of the corpus log does not detect cleanly")
	}
	for _, cut := range []int{0, 3, 6, len(v1) / 2, len(v1) - 1} {
		check(fmt.Sprintf("LTRC1 cut at %d", cut), v1[:cut])
	}
	for _, garbage := range []string{"", "LTR", "LTRC2", "LTRC2\n", "not a log at all"} {
		check(fmt.Sprintf("input %q", garbage), []byte(garbage))
	}
	t.Logf("%d inputs failed strict detection, %d passed; %d chunks", strictErrs, clean, len(spans))
	if strictErrs == 0 || clean < 2 {
		t.Fatalf("corpus not exercising both outcomes: %d strict errors, %d clean", strictErrs, clean)
	}
}

// TestFullLogBacklogStaysSmall pins what the writer's flush-after-fork
// rule buys: on a full log the merge delivers while the log is read, so
// its backlog peaks at a few percent of the events instead of nearly
// all of them (a thread holding the forks every worker waits on would
// otherwise flush them only at exit).
func TestFullLogBacklogStaysSmall(t *testing.T) {
	for _, key := range []string{"dryad", "concrt-msg", "apache-1"} {
		b, ok := workloads.ByKey(key)
		if !ok {
			t.Fatalf("unknown workload %s", key)
		}
		p, err := Assemble(b.Key, b.Source(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.Instrument(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if _, err := p.Run(Config{Sampler: "Full", Seed: 1, LogTo: &buf}); err != nil {
			t.Fatal(err)
		}
		reg := obs.New()
		if _, err := DetectObs(bytes.NewReader(buf.Bytes()), nil, reg); err != nil {
			t.Fatal(err)
		}
		events := reg.Counter("stream.events").Value()
		hwm := reg.Gauge("stream.backlog_hwm").Value()
		t.Logf("%s: backlog high water %.0f of %d events", key, hwm, events)
		if events == 0 || hwm > 0.03*float64(events) {
			t.Errorf("%s: merge backlog peaked at %.0f of %d events, want <= 3%%", key, hwm, events)
		}
	}
}
