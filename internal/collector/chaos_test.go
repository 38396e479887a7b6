// Chaos harness for the fleet collector: many concurrent producers,
// half of them killed mid-stream or shipping through a mutilated
// transport, against one collector that must stay healthy, keep serving
// the survivors byte-identical reports, and never confirm a race the
// full logs do not contain.
package collector_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"literace"
	"literace/internal/collector"
	"literace/internal/core"
	"literace/internal/instrument"
	"literace/internal/interp"
	"literace/internal/obs/diag"
	"literace/internal/sampler"
	"literace/internal/trace"
	"literace/internal/trace/faultinject"
	"literace/internal/workloads"
)

// genLog executes benchmark key at its default scale under full logging
// and returns the encoded LTRC2 log. Results are cached per (key, seed):
// the chaos tests ship the same logs under many producer names.
func genLog(t *testing.T, key string, seed int64) []byte {
	t.Helper()
	logCacheMu.Lock()
	defer logCacheMu.Unlock()
	ck := fmt.Sprintf("%s/%d", key, seed)
	if data, ok := logCache[ck]; ok {
		return data
	}
	b, ok := workloads.ByKey(key)
	if !ok {
		t.Fatalf("unknown benchmark %q", key)
	}
	mod, err := b.Module(0)
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
		t.Fatalf("%s seed %d: %v", key, seed, err)
	}
	if err := w.Close(mach.Meta(res)); err != nil {
		t.Fatal(err)
	}
	logCache[ck] = buf.Bytes()
	return logCache[ck]
}

var (
	logCacheMu sync.Mutex
	logCache   = map[string][]byte{}
)

// detectText is the offline reference: what `literace detect` prints.
func detectText(t *testing.T, data []byte) string {
	t.Helper()
	rep, err := literace.Detect(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	return rep.String()
}

// raceKeys returns the full log's static race identities.
func raceKeys(t *testing.T, data []byte) map[string]bool {
	t.Helper()
	rep, err := literace.Detect(bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := make(map[string]bool, len(rep.Races))
	for _, rc := range rep.Races {
		keys[rc.First+"\x00"+rc.Second] = true
	}
	return keys
}

// startCollector brings up a collector on a loopback listener.
func startCollector(t *testing.T, opts collector.Options) (*collector.Server, string) {
	t.Helper()
	srv, err := collector.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = srv.Serve(lis) }()
	t.Cleanup(func() { _ = srv.Close() })
	return srv, lis.Addr().String()
}

// TestCollectorShipParity is the healthy path: concurrent producers,
// every returned report byte-identical to offline detection.
func TestCollectorShipParity(t *testing.T) {
	srv, addr := startCollector(t, collector.Options{})
	keys := []string{"dryad", "lkrhash", "concrt-msg", "lflist"}
	var wg sync.WaitGroup
	for i, key := range keys {
		wg.Add(1)
		go func(i int, key string) {
			defer wg.Done()
			data := genLog(t, key, int64(i+1))
			final, err := collector.ShipBytes(data, collector.ShipOptions{
				Addr: addr, Producer: fmt.Sprintf("p-%s", key), Module: key,
			})
			if err != nil {
				t.Errorf("%s: %v", key, err)
				return
			}
			if want := detectText(t, data); final.Report != want {
				t.Errorf("%s: collector report differs from detect\ncollector: %q\ndetect:    %q", key, final.Report, want)
			}
			if final.Degraded || !final.Complete {
				t.Errorf("%s: degraded=%v complete=%v on a healthy ship", key, final.Degraded, final.Complete)
			}
		}(i, key)
	}
	wg.Wait()
	fleet := srv.FleetReport()
	if fleet.Finalized != len(keys) {
		t.Fatalf("finalized %d sessions, want %d", fleet.Finalized, len(keys))
	}
	if fleet.Unconfirmed != 0 {
		t.Fatalf("healthy fleet has %d unconfirmed races", fleet.Unconfirmed)
	}
	// dryad races, so the parity above is not vacuous, and a healthy
	// fleet confirms every race it rolls up.
	if len(fleet.Races) == 0 || fleet.Confirmed != len(fleet.Races) {
		t.Fatalf("fleet rollup: %d races, %d confirmed", len(fleet.Races), fleet.Confirmed)
	}
}

// TestCollectorResumeAfterDrop kills the transport mid-stream on every
// attempt's first bytes; the shipper's resume must converge with no
// byte fed twice, so the final report is still exactly detect's.
func TestCollectorResumeAfterDrop(t *testing.T) {
	_, addr := startCollector(t, collector.Options{})
	data := genLog(t, "dryad", 1)
	final, err := collector.ShipBytes(data, collector.ShipOptions{
		Addr:        addr,
		Producer:    "flaky",
		FrameSize:   4 << 10,
		MaxAttempts: -1,
		Backoff:     time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		WrapConn: func(c net.Conn) net.Conn {
			return faultinject.NetFaults{DropAfter: 32 << 10}.WrapConn(c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := detectText(t, data); final.Report != want {
		t.Fatalf("resumed report differs from detect\ncollector: %q\ndetect:    %q", final.Report, want)
	}
	if final.Degraded {
		t.Fatal("lossless resume produced a degraded report")
	}
}

// TestCollectorChaos is the acceptance gate: 16 concurrent producers —
// killed mid-stream, shipping through fragmented and corrupted
// transports, or healthy — against one collector. The collector must
// finalize every session, recover its health once the storm passes,
// keep survivors byte-identical to detect, and confirm no race the full
// logs do not contain.
func TestCollectorChaos(t *testing.T) {
	const producers = 16
	rec := diag.NewRecorder(0)
	srv, addr := startCollector(t, collector.Options{
		Diag:        rec,
		ResumeGrace: 300 * time.Millisecond,
	})
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()

	logKeys := []string{"dryad", "lkrhash", "concrt-msg", "lflist"}
	logs := make([][]byte, len(logKeys))
	fullLog := make(map[string]bool)
	for i, key := range logKeys {
		logs[i] = genLog(t, key, int64(i+1))
		for k := range raceKeys(t, logs[i]) {
			fullLog[k] = true
		}
	}

	// Watch health during the storm: killed producers park their sessions
	// for the resume grace, and the live health must report that window
	// as degraded (and recover afterwards, asserted below).
	healthDone := make(chan struct{})
	var degradedSeen atomic.Bool
	go func() {
		t2 := time.NewTicker(5 * time.Millisecond)
		defer t2.Stop()
		for {
			select {
			case <-healthDone:
				return
			case <-t2.C:
				if h := srv.Health(); h != nil && h.Status == "degraded" {
					degradedSeen.Store(true)
				}
			}
		}
	}()

	var wg sync.WaitGroup
	var mu sync.Mutex
	survivors := make(map[string]string) // producer -> expected detect text
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := logs[i%len(logs)]
			name := fmt.Sprintf("p%02d", i)
			opts := collector.ShipOptions{
				Addr:      addr,
				Producer:  name,
				FrameSize: 4 << 10,
				Backoff:   time.Millisecond,
			}
			switch {
			case i%4 == 1:
				// Killed mid-stream: one attempt, transport dies partway.
				// No reply ever comes; the server parks, waits out the
				// grace, and finalizes the torn prefix under salvage rules.
				opts.MaxAttempts = 1
				opts.WrapConn = func(c net.Conn) net.Conn {
					return faultinject.NetFaults{DropAfter: int64(len(data) / 3)}.WrapConn(c)
				}
				if _, err := collector.ShipBytes(data, opts); err == nil {
					t.Errorf("%s: killed producer's ship unexpectedly succeeded", name)
				}
				return
			case i%4 == 3:
				// Hostile transport: fragmented into 7-byte writes with a
				// bit flipped every ~50KB. Framing may die (retried) and
				// payloads may corrupt (salvaged); either way the collector
				// must survive. Outcome is asserted fleet-wide below.
				opts.MaxAttempts = 4
				opts.WrapConn = func(c net.Conn) net.Conn {
					return faultinject.NetFaults{MaxWrite: 7, FlipBitEvery: 50 << 10, Seed: int64(i)}.WrapConn(c)
				}
				_, _ = collector.ShipBytes(data, opts)
				return
			default:
				// Healthy producer: must come back byte-identical.
				final, err := collector.ShipBytes(data, opts)
				if err != nil {
					t.Errorf("%s: %v", name, err)
					return
				}
				mu.Lock()
				survivors[name] = final.Report
				mu.Unlock()
				if want := detectText(t, data); final.Report != want {
					t.Errorf("%s: report differs from detect", name)
				}
			}
		}(i)
	}
	wg.Wait()

	// Every session must finalize: survivors at EOF, killed ones when the
	// resume grace expires.
	if err := srv.WaitFinalized(producers, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	close(healthDone)
	if !degradedSeen.Load() {
		t.Error("health never reported degraded while sessions were parked")
	}

	// After the storm: /healthz must have recovered.
	resp, err := http.Get(hts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || hz.Status != "ok" {
		t.Fatalf("/healthz after the storm: code=%d status=%q, want 200 ok", resp.StatusCode, hz.Status)
	}

	// The collector must still accept new producers.
	late, err := collector.ShipBytes(logs[0], collector.ShipOptions{Addr: addr, Producer: "straggler"})
	if err != nil {
		t.Fatalf("post-chaos ship: %v", err)
	}
	if want := detectText(t, logs[0]); late.Report != want {
		t.Fatal("post-chaos report differs from detect")
	}

	// Zero false positives, fleet-wide: every confirmed race must exist
	// in some full log. (Unconfirmed races carry no guarantee.)
	fleet := srv.FleetReport()
	for _, rc := range fleet.Races {
		if rc.Confirmed && !fullLog[rc.First+"\x00"+rc.Second] {
			t.Errorf("confirmed fleet race %s <-> %s not in any full log", rc.First, rc.Second)
		}
	}
	if fleet.Disconnects == 0 {
		t.Error("chaos run recorded no disconnect anomalies")
	}
	if got := rec.AnomalyCount(diag.AnomDisconnect); got == 0 {
		t.Error("flight recorder saw no disconnects")
	}

	// GET /fleet serves the same view.
	resp, err = http.Get(hts.URL + "/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var over collector.FleetReport
	if err := json.NewDecoder(resp.Body).Decode(&over); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if over.Schema != collector.FleetSchema {
		t.Fatalf("/fleet schema %q", over.Schema)
	}
	if len(over.Producers) < producers {
		t.Fatalf("/fleet lists %d producers, want >= %d", len(over.Producers), producers)
	}
}

// rawShip drives the wire protocol by hand so tests can send frames in
// arbitrary order.
func rawShip(t *testing.T, addr, producer string, frames [][3]any, total uint64) collector.FinalReply {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(collector.Magic)); err != nil {
		t.Fatal(err)
	}
	hello, _ := json.Marshal(collector.Hello{V: collector.ProtocolVersion, Producer: producer})
	if _, err := conn.Write(append(hello, '\n')); err != nil {
		t.Fatal(err)
	}
	rd := newLineReader(conn)
	var hr collector.HelloReply
	if err := json.Unmarshal([]byte(rd(t)), &hr); err != nil || !hr.OK {
		t.Fatalf("hello reply: %v %+v", err, hr)
	}
	for _, f := range frames {
		flags, off, payload := f[0].(byte), f[1].(uint64), f[2].([]byte)
		hdr := make([]byte, 13)
		hdr[0] = flags
		for j := 0; j < 8; j++ {
			hdr[1+j] = byte(off >> (56 - 8*j))
		}
		n := uint32(len(payload))
		for j := 0; j < 4; j++ {
			hdr[9+j] = byte(n >> (24 - 8*j))
		}
		if _, err := conn.Write(append(hdr, payload...)); err != nil {
			t.Fatal(err)
		}
	}
	eof := make([]byte, 13)
	eof[0] = 1
	for j := 0; j < 8; j++ {
		eof[1+j] = byte(total >> (56 - 8*j))
	}
	if _, err := conn.Write(eof); err != nil {
		t.Fatal(err)
	}
	var final collector.FinalReply
	if err := json.Unmarshal([]byte(rd(t)), &final); err != nil {
		t.Fatal(err)
	}
	return final
}

// newLineReader returns a closure reading one newline-terminated line.
func newLineReader(conn net.Conn) func(t *testing.T) string {
	var buf bytes.Buffer
	one := make([]byte, 1)
	return func(t *testing.T) string {
		t.Helper()
		buf.Reset()
		_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		for {
			if _, err := conn.Read(one); err != nil {
				t.Fatalf("reading reply line: %v", err)
			}
			if one[0] == '\n' {
				return buf.String()
			}
			buf.WriteByte(one[0])
		}
	}
}

// split chops data into n-byte frames with absolute offsets.
func split(data []byte, n int) [][3]any {
	var out [][3]any
	for off := 0; off < len(data); off += n {
		end := off + n
		if end > len(data) {
			end = len(data)
		}
		out = append(out, [3]any{byte(0), uint64(off), data[off:end]})
	}
	return out
}

// TestCollectorReorderWithinBudget delivers the log's frames in a
// scrambled order; the reorder buffer must reassemble them losslessly.
func TestCollectorReorderWithinBudget(t *testing.T) {
	_, addr := startCollector(t, collector.Options{})
	data := genLog(t, "dryad", 1)
	frames := split(data, 8<<10)
	// Swap adjacent pairs: 1,0,3,2,...
	for i := 0; i+1 < len(frames); i += 2 {
		frames[i], frames[i+1] = frames[i+1], frames[i]
	}
	final := rawShip(t, addr, "scrambled", frames, uint64(len(data)))
	if !final.OK {
		t.Fatalf("final: %+v", final)
	}
	if want := detectText(t, data); final.Report != want {
		t.Fatal("reordered delivery changed the report")
	}
	if final.Degraded {
		t.Fatal("within-budget reorder degraded the analysis")
	}
}

// TestCollectorReorderShed starves the reorder buffer: the second frame
// is withheld until the end while the budget only holds a fraction of
// the stream, forcing sheds. (The first frame — which carries the LTRC2
// magic — does arrive: a session that never sees the magic is correctly
// failed as not-a-log, a different test.) The session must survive, the
// report turn degraded, and its confirmed races stay within the full
// log's set.
func TestCollectorReorderShed(t *testing.T) {
	rec := diag.NewRecorder(0)
	_, addr := startCollector(t, collector.Options{
		Diag:            rec,
		MaxReorderBytes: 16 << 10,
	})
	data := genLog(t, "dryad", 1)
	frames := split(data, 4<<10)
	if len(frames) < 8 {
		t.Skip("log too small to starve the reorder buffer")
	}
	reordered := append([][3]any{frames[0]}, frames[2:]...)
	reordered = append(reordered, frames[1])
	final := rawShip(t, addr, "starved", reordered, uint64(len(data)))
	if !final.OK {
		t.Fatalf("shedding session failed outright: %+v", final)
	}
	if !final.Degraded {
		t.Fatal("shed bytes did not degrade the analysis")
	}
	if rec.AnomalyCount(diag.AnomShed) == 0 {
		t.Fatal("no shed anomaly recorded")
	}
	full := raceKeys(t, data)
	// Parse confirmed pairs out of the report text: every line without
	// the UNCONFIRMED suffix names a race that must be in the full set.
	for _, line := range strings.Split(final.Report, "\n") {
		if !strings.Contains(line, "<->") || strings.HasSuffix(line, "UNCONFIRMED") {
			continue
		}
		fs := strings.Fields(line)
		// "frequent a <-> b count=..." — fields 1 and 3.
		if len(fs) < 4 {
			continue
		}
		if !full[fs[1]+"\x00"+fs[3]] {
			t.Errorf("confirmed race %s <-> %s not in the full log", fs[1], fs[3])
		}
	}
}

// TestCollectorDuplicateFramesDropped re-sends every frame twice (and
// the whole log again after EOF of the first copy would be illegal, so
// just doubled frames): accepted bytes must not double.
func TestCollectorDuplicateFramesDropped(t *testing.T) {
	srv, addr := startCollector(t, collector.Options{})
	data := genLog(t, "dryad", 1)
	frames := split(data, 8<<10)
	doubled := make([][3]any, 0, len(frames)*2)
	for _, f := range frames {
		doubled = append(doubled, f, f)
	}
	final := rawShip(t, addr, "stutter", doubled, uint64(len(data)))
	if !final.OK || final.Degraded {
		t.Fatalf("final: %+v", final)
	}
	if want := detectText(t, data); final.Report != want {
		t.Fatal("duplicated frames changed the report")
	}
	fleet := srv.FleetReport()
	for _, p := range fleet.Producers {
		if p.Name == "stutter" {
			if p.AcceptedBytes != uint64(len(data)) {
				t.Fatalf("accepted %d bytes, want %d", p.AcceptedBytes, len(data))
			}
			if p.DupFrames == 0 {
				t.Fatal("no duplicate frames counted")
			}
		}
	}
}

// TestCollectorGarbageIsolated feeds one session bytes that are not an
// LTRC2 log at all; that session fails, its neighbor is untouched.
func TestCollectorGarbageIsolated(t *testing.T) {
	_, addr := startCollector(t, collector.Options{})
	garbage := bytes.Repeat([]byte("certainly not a trace "), 1024)
	_, err := collector.ShipBytes(garbage, collector.ShipOptions{
		Addr: addr, Producer: "hostile", MaxAttempts: 1,
	})
	if err == nil {
		t.Fatal("garbage stream accepted")
	}
	data := genLog(t, "dryad", 1)
	final, err := collector.ShipBytes(data, collector.ShipOptions{Addr: addr, Producer: "bystander"})
	if err != nil {
		t.Fatal(err)
	}
	if want := detectText(t, data); final.Report != want {
		t.Fatal("bystander report differs from detect")
	}
}

// TestCollectorHTTPIngest exercises the one-shot POST path.
func TestCollectorHTTPIngest(t *testing.T) {
	srv, _ := startCollector(t, collector.Options{})
	hts := httptest.NewServer(srv.Handler())
	defer hts.Close()
	data := genLog(t, "lkrhash", 2)
	resp, err := http.Post(hts.URL+"/ingest?producer=uploader&module=lkrhash", "application/octet-stream", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /ingest: %d: %s", resp.StatusCode, body)
	}
	var final collector.FinalReply
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if want := detectText(t, data); final.Report != want {
		t.Fatal("HTTP ingest report differs from detect")
	}
}

// TestForwarderLiveAndDropped drives the watch -forward path: appends in
// pieces over a transport that keeps dying; Close must still converge to
// the exact detect report via resume.
func TestForwarderLiveAndDropped(t *testing.T) {
	_, addr := startCollector(t, collector.Options{})
	data := genLog(t, "concrt-msg", 3)

	// Healthy live forward.
	fw, err := collector.NewForwarder(collector.ShipOptions{Addr: addr, Producer: "tail-ok"})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 10 << 10 {
		end := off + 10<<10
		if end > len(data) {
			end = len(data)
		}
		fw.Append(data[off:end])
	}
	final, err := fw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := detectText(t, data); final.Report != want {
		t.Fatal("forwarded report differs from detect")
	}

	// A transport that dies every 32KB: Appends absorb the failures,
	// Close's retrying fallback finishes the job.
	fw, err = collector.NewForwarder(collector.ShipOptions{
		Addr:        addr,
		Producer:    "tail-flaky",
		FrameSize:   4 << 10,
		MaxAttempts: -1,
		Backoff:     time.Millisecond,
		MaxBackoff:  4 * time.Millisecond,
		WrapConn: func(c net.Conn) net.Conn {
			return faultinject.NetFaults{DropAfter: 32 << 10}.WrapConn(c)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for off := 0; off < len(data); off += 7 << 10 {
		end := off + 7<<10
		if end > len(data) {
			end = len(data)
		}
		fw.Append(data[off:end])
	}
	final, err = fw.Close()
	if err != nil {
		t.Fatal(err)
	}
	if want := detectText(t, data); final.Report != want {
		t.Fatal("flaky forwarded report differs from detect")
	}
	if final.Degraded {
		t.Fatal("flaky transport degraded a lossless resume")
	}
}
