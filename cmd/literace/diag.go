package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"literace"
	"literace/internal/forensics"
	"literace/internal/hb"
	"literace/internal/obs"
	"literace/internal/obs/diag"
	"literace/internal/obs/ledger"
	"literace/internal/obs/timeline"
	"literace/internal/obs/tsdb"
	"literace/internal/trace"
)

// diagBundleSchema versions the bundle layout; bump it when a member
// changes name or meaning.
const diagBundleSchema = "literace.diagbundle/v2"

// bundleMember is one MANIFEST.json row. Deterministic members are
// byte-stable across reruns of `literace diag` over the same log with
// the same flags; the rest carry wall-clock or heap state.
type bundleMember struct {
	Name          string `json:"name"`
	Deterministic bool   `json:"deterministic"`
	Desc          string `json:"desc"`
}

// bundleWriter accumulates members under one directory and writes the
// manifest last, in member-append order (which is fixed).
type bundleWriter struct {
	dir     string
	members []bundleMember
}

func (b *bundleWriter) add(name string, deterministic bool, desc string, data []byte) error {
	if err := os.WriteFile(filepath.Join(b.dir, name), data, 0o644); err != nil {
		return err
	}
	b.members = append(b.members, bundleMember{Name: name, Deterministic: deterministic, Desc: desc})
	return nil
}

func (b *bundleWriter) addJSON(name string, deterministic bool, desc string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return b.add(name, deterministic, desc, append(data, '\n'))
}

func (b *bundleWriter) writeManifest() error {
	b.members = append(b.members, bundleMember{
		Name: "MANIFEST.json", Deterministic: true, Desc: "bundle member index (this file)",
	})
	data, err := json.MarshalIndent(struct {
		Schema  string         `json:"schema"`
		Members []bundleMember `json:"members"`
	}{Schema: diagBundleSchema, Members: b.members}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(b.dir, "MANIFEST.json"), append(data, '\n'), 0o644)
}

// cmdDiag replays a trace log through the fully instrumented streaming
// pipeline (flight recorder, obs registry, health watchdog all armed)
// and writes a diagnostics bundle directory: everything needed to file
// or debug a pipeline problem in one attachable artifact. Members whose
// content depends only on the log bytes and flags are byte-stable across
// reruns (marked deterministic in MANIFEST.json); members carrying
// wall-clock timings or process state are not.
func cmdDiag(args []string) error {
	fs := flag.NewFlagSet("diag", flag.ExitOnError)
	outDir := fs.String("o", "", "bundle output directory (default <log>.diag)")
	srcPath := fs.String("src", "", "original .lir source, to resolve function names")
	ledgerDir := fs.String("ledger", "", "include the tail of this run-report ledger in the bundle")
	ledgerTail := fs.Int("ledger-tail", 5, "how many trailing ledger entries to include")
	lcfg := addLogFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("diag wants one log file")
	}
	log, err := lcfg.logger("diag")
	if err != nil {
		return err
	}
	logPath := fs.Arg(0)
	dir := *outDir
	if dir == "" {
		dir = logPath + ".diag"
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := os.ReadFile(logPath)
	if err != nil {
		return err
	}
	var resolve func(int32) string
	if *srcPath != "" {
		p, err := loadProgram(*srcPath)
		if err != nil {
			return err
		}
		resolve = p.FuncName
	}

	// Salvage-decode once for the fsck member (deterministic: depends
	// only on the log bytes).
	tlog, srep, err := trace.Salvage(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if srep.Lossy() {
		log.Warn("log is damaged; bundle reflects salvage semantics", "summary", srep.Summary())
	}

	// Replay through the instrumented pipeline.
	reg := obs.New()
	rec := diag.NewRecorderObs(1<<16, reg)
	wd := diag.NewWatchdog(diag.DefaultSLO())
	sess := literace.NewStreamSession(resolve, literace.StreamOptions{
		Obs: reg, Diag: rec, Log: log,
		// Evidence capture and near-miss analytics feed the bundle's
		// forensics.json member; cost is bounded by the logged accesses
		// the replay analyzes anyway.
		Evidence:       true,
		NearMissMargin: hb.DefaultNearMissMargin,
	})
	// The replay records its own time series on a virtual clock — the
	// cumulative bytes fed stand in for nanoseconds, so the history's
	// shape depends on the log, not on this machine's speed. Backlog is
	// still scheduling-dependent (the member stays nondeterministic).
	store := tsdb.New(tsdb.Options{})
	const feedSize = 256 << 10
	for off := 0; off < len(data); off += feedSize {
		end := off + feedSize
		if end > len(data) {
			end = len(data)
		}
		if err := sess.Feed(data[off:end]); err != nil {
			return err
		}
		vt := int64(end)
		p := sess.Probe()
		store.Append("diag.bytes_fed", tsdb.KindCounter, vt, float64(end))
		store.Append("diag.backlog", tsdb.KindGauge, vt, float64(p.Backlog))
		store.Append("diag.backlog_high_water", tsdb.KindGauge, vt, float64(p.BacklogHighWater))
	}
	rep, res, err := sess.Finish()
	if err != nil {
		return err
	}
	health := wd.Poll(rec, sess.Probe())

	b := &bundleWriter{dir: dir}

	// Deterministic members first: effective config, fsck, report, ledger tail.
	if err := b.addJSON("config.json", true, "effective configuration of this diag run", struct {
		Schema  string   `json:"schema"`
		Log     string   `json:"log"`
		Src     string   `json:"src,omitempty"`
		Module  string   `json:"module,omitempty"`
		Sampler string   `json:"sampler,omitempty"`
		Seed    int64    `json:"seed"`
		SLO     diag.SLO `json:"slo"`
	}{
		Schema: diagBundleSchema, Log: logPath, Src: *srcPath,
		Module: tlog.Meta.Module, Sampler: tlog.Meta.Primary, Seed: tlog.Meta.Seed,
		SLO: wd.SLO(),
	}); err != nil {
		return err
	}
	if err := b.addJSON("fsck.json", true, "log health report (salvage decoder accounting)", struct {
		File    string               `json:"file"`
		Healthy bool                 `json:"healthy"`
		Summary string               `json:"summary"`
		Events  int                  `json:"events"`
		Threads int                  `json:"threads"`
		Module  string               `json:"module,omitempty"`
		Seed    int64                `json:"seed"`
		Report  *trace.SalvageReport `json:"report"`
	}{
		File: logPath, Healthy: !srep.Lossy(), Summary: srep.Summary(),
		Events: tlog.NumEvents(), Threads: len(tlog.Threads),
		Module: tlog.Meta.Module, Seed: tlog.Meta.Seed, Report: srep,
	}); err != nil {
		return err
	}
	if err := b.add("report.txt", true, "race detection report (identical to detect/detect -salvage)", []byte(rep.String())); err != nil {
		return err
	}
	// forensics.json carries the full evidence view of the same replay:
	// per-occurrence vector clocks, sync frontiers, locksets, witness
	// windows, and the near-miss table. Deterministic per log bytes:
	// occurrence order is replay order.
	fxRep, err := forensics.Build(tlog, &res.Result, forensics.Options{
		Resolve:  resolve,
		Margin:   hb.DefaultNearMissMargin,
		Degraded: res.Degradation.Degraded() || res.Salvage.Lossy(),
	})
	if err != nil {
		return err
	}
	fxDoc, err := fxRep.MarshalStable()
	if err != nil {
		return err
	}
	if err := b.add("forensics.json", true, "forensic race report: evidence, witnesses, near misses (literace.forensics/v1)", fxDoc); err != nil {
		return err
	}
	if *ledgerDir != "" {
		l, err := ledger.Open(*ledgerDir)
		if err != nil {
			return err
		}
		entries := l.Entries()
		if n := *ledgerTail; n > 0 && len(entries) > n {
			entries = entries[len(entries)-n:]
		}
		if err := b.addJSON("ledger_tail.json", true, "trailing run-report ledger entries", struct {
			Ledger  string         `json:"ledger"`
			Entries []ledger.Entry `json:"entries"`
		}{Ledger: *ledgerDir, Entries: entries}); err != nil {
			return err
		}
	}

	// Nondeterministic members: health, telemetry, flight recorder,
	// timeline, process profiles.
	if err := b.addJSON("health.json", false, "SLO health report from one watchdog poll over the replay", health); err != nil {
		return err
	}
	snap, err := reg.Snapshot().MarshalStable()
	if err != nil {
		return err
	}
	if err := b.add("obs.json", false, "telemetry registry snapshot", snap); err != nil {
		return err
	}
	tsdump, err := store.Dump().MarshalStable()
	if err != nil {
		return err
	}
	if err := b.add("timeseries.json", false, "replay time series over a virtual bytes-fed clock (backlog depends on scheduling)", tsdump); err != nil {
		return err
	}
	var fr bytes.Buffer
	if err := rec.WriteJSONL(&fr); err != nil {
		return err
	}
	if err := b.add("flightrec.jsonl", false, "flight-recorder ring dump (one event per line, oldest first)", fr.Bytes()); err != nil {
		return err
	}
	tl, _, err := timeline.Build(data, timeline.Options{
		Salvage: srep.Lossy(), Resolve: resolve, FlightRecorder: rec.Snapshot(),
	})
	if err != nil {
		return err
	}
	if err := b.add("timeline.json", false, "Perfetto timeline with the flight-recorder track", tl); err != nil {
		return err
	}
	var gr bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&gr, 1); err != nil {
		return err
	}
	if err := b.add("goroutines.txt", false, "goroutine dump of the diag process", gr.Bytes()); err != nil {
		return err
	}
	var hp bytes.Buffer
	runtime.GC()
	if err := pprof.WriteHeapProfile(&hp); err != nil {
		return err
	}
	if err := b.add("heap.pprof", false, "heap profile of the diag process", hp.Bytes()); err != nil {
		return err
	}
	if err := b.writeManifest(); err != nil {
		return err
	}

	det := 0
	for _, m := range b.members {
		if m.Deterministic {
			det++
		}
	}
	fmt.Printf("diag bundle %s: %d members (%d deterministic), %d flight events, %d anomalies, health %s\n",
		dir, len(b.members), det, rec.Recorded(), rec.Anomalies(), health.Status)
	return nil
}
