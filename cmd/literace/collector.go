package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"literace/internal/collector"
	"literace/internal/obs"
	"literace/internal/obs/diag"
	"literace/internal/obs/tsdb"
)

// cmdServeCollector runs the fleet ingestion service: a TCP endpoint
// accepting LTRC2 streams from many producers (`literace ship`, `watch
// -forward`), each in a fault-isolated session with its own online
// detection pipeline, rolled up into a fleet-wide deduplicated race
// report. See internal/collector's package doc for the protocol and the
// robustness model.
//
// The command exits 0 after -done-after sessions finalize (or on
// SIGINT/SIGTERM), printing the fleet report to stdout. With -slo armed
// a sustained health breach exits 4 — shed and disconnect anomalies are
// part of the policy via -slo-max-shed and -slo-max-disconnects.
func cmdServeCollector(args []string) error {
	fs := flag.NewFlagSet("serve-collector", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:0", "TCP address to accept producer streams on")
	serveAddr := fs.String("serve", "", "serve HTTP (telemetry + /fleet + POST /ingest) at this address")
	outDir := fs.String("out", "", "write per-producer report files and FLEET.json to this directory")
	ledgerDir := fs.String("ledger", "", "append one run report per finalized producer to the ledger at this directory")
	addrFile := fs.String("addr-file", "", "write the bound TCP address to this file (for scripts to discover -listen :0)")
	doneAfter := fs.Int("done-after", 0, "shut down cleanly after this many sessions finalize (0 = run until signaled)")
	doneTimeout := fs.Duration("done-timeout", 0, "give up waiting for -done-after sessions after this long (0 = forever)")
	resumeGrace := fs.Duration("resume-grace", collector.DefaultResumeGrace, "how long a disconnected producer may take to resume before its torn stream is finalized")
	idleTimeout := fs.Duration("idle-timeout", collector.DefaultIdleTimeout, "per-frame read deadline (the slow-loris bound)")
	maxSessions := fs.Int("max-sessions", collector.DefaultMaxSessions, "maximum live producer sessions")
	maxReorder := fs.Int("max-reorder", collector.DefaultMaxReorderBytes, "per-session out-of-order buffer budget in bytes (overflow sheds)")
	srcPath := fs.String("src", "", "original .lir source, to resolve function names in reports")
	slo := fs.Bool("slo", false, "arm the SLO watchdog: exit 4 when a health check breaches for -slo-sustain consecutive polls")
	sloSustain := fs.Int("slo-sustain", 0, "consecutive breaching polls before the breach counts as sustained (0 = default)")
	sloMaxLag := fs.Int("slo-max-lag", -2, "max aggregate decode→deliver lag in events (-1 disables, -2 = default)")
	sloMaxCRC := fs.Int64("slo-max-crc", -2, "tolerated CRC failures (-1 disables, -2 = default)")
	sloMaxGaps := fs.Int64("slo-max-gaps", -2, "tolerated sequence gaps (-1 disables, -2 = default)")
	sloMaxShed := fs.Int64("slo-max-shed", -2, "tolerated backpressure shed events (-1 disables, -2 = default)")
	sloMaxDisconnects := fs.Int64("slo-max-disconnects", -2, "tolerated producer disconnects without EOF (-1 disables, -2 = default)")
	lcfg := addLogFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("serve-collector takes no positional arguments")
	}
	log, err := lcfg.logger("collector")
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
	var reg *obs.Registry
	var store *tsdb.Store
	if *serveAddr != "" {
		reg = obs.New()
		store = tsdb.New(tsdb.Options{})
	}
	var policy *diag.SLO
	if *slo {
		p := diag.DefaultSLO()
		if *sloSustain > 0 {
			p.SustainPolls = *sloSustain
		}
		if *sloMaxLag > -2 {
			p.MaxDecodeLag = *sloMaxLag
		}
		if *sloMaxCRC > -2 {
			p.MaxCRCFailures = *sloMaxCRC
		}
		if *sloMaxGaps > -2 {
			p.MaxSeqGaps = *sloMaxGaps
		}
		if *sloMaxShed > -2 {
			p.MaxShedEvents = *sloMaxShed
		}
		if *sloMaxDisconnects > -2 {
			p.MaxDisconnects = *sloMaxDisconnects
		}
		policy = &p
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
	}

	srv, err := collector.New(collector.Options{
		Resolve:         resolve,
		MaxSessions:     *maxSessions,
		MaxReorderBytes: *maxReorder,
		ResumeGrace:     *resumeGrace,
		IdleTimeout:     *idleTimeout,
		OutDir:          *outDir,
		LedgerDir:       *ledgerDir,
		Obs:             reg,
		TS:              store,
		Log:             log,
		SLO:             policy,
	})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	log.Info("collector listening", "addr", lis.Addr().String())
	if *addrFile != "" {
		// Write-then-rename so a polling script never reads a torn file;
		// a failure here is fatal (the script would hang forever waiting
		// for an address), logged structured and exiting non-zero.
		tmp := *addrFile + ".tmp"
		err := os.WriteFile(tmp, []byte(lis.Addr().String()+"\n"), 0o644)
		if err == nil {
			err = os.Rename(tmp, *addrFile)
		}
		if err != nil {
			log.Error("writing -addr-file failed; scripts polling it would hang",
				"path", *addrFile, "err", err)
			_ = os.Remove(tmp)
			return fmt.Errorf("serve-collector: writing -addr-file %s: %w", *addrFile, err)
		}
	}

	var httpSrv *http.Server
	if *serveAddr != "" {
		hlis, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			return err
		}
		httpSrv = &http.Server{Handler: srv.Handler()}
		go func() { _ = httpSrv.Serve(hlis) }()
		log.Info("serving fleet telemetry",
			"url", fmt.Sprintf("http://%s/dashboard", hlis.Addr().String()),
			"endpoints", "/fleet /ingest /metrics /snapshot /healthz /api/timeseries /dashboard /debug/pprof")
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(lis) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sig)

	waitDone := make(chan error, 1)
	if *doneAfter > 0 {
		go func() { waitDone <- srv.WaitFinalized(*doneAfter, *doneTimeout) }()
	}

	select {
	case s := <-sig:
		log.Info("signal received; shutting down", "signal", s.String())
	case err := <-waitDone:
		if err != nil {
			log.Warn("done-after wait", "err", err)
		} else {
			log.Info("target session count finalized; shutting down", "sessions", *doneAfter)
		}
	case err := <-serveErr:
		if err != nil {
			return err
		}
	}
	if err := srv.Close(); err != nil {
		return err
	}
	if httpSrv != nil {
		_ = httpSrv.Close()
	}
	fmt.Print(srv.FleetReport().String())
	return srv.SLOErr()
}

// cmdShip streams an encoded log to a collector with retry and resume,
// printing the collector's race report — byte-identical to `literace
// detect` on the same file — to stdout.
func cmdShip(args []string) error {
	fs := flag.NewFlagSet("ship", flag.ExitOnError)
	to := fs.String("to", "", "collector TCP address (required)")
	producer := fs.String("producer", "", "producer name, unique fleet-wide (required)")
	module := fs.String("module", "", "module tag for the ledger rollup")
	frame := fs.Int("frame", 0, "data frame payload size in bytes (0 = default)")
	attempts := fs.Int("attempts", 0, "connect-and-stream attempts before giving up (0 = default, negative = forever)")
	throttle := fs.Duration("throttle", 0, "sleep between data frames (paces the stream; chaos harnesses kill producers mid-ship)")
	telemetry := fs.Bool("telemetry", false, "ship this producer's own metrics to the collector's fleet dashboard (ignored by old collectors)")
	quiet := fs.Bool("quiet", false, "suppress the report; print only the summary line")
	lcfg := addLogFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("ship wants one log file")
	}
	if *to == "" || *producer == "" {
		return fmt.Errorf("ship needs -to ADDR and -producer NAME")
	}
	log, err := lcfg.logger("ship")
	if err != nil {
		return err
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	var treg *obs.Registry
	if *telemetry {
		treg = obs.New()
	}
	start := time.Now()
	final, err := collector.Ship(f, st.Size(), collector.ShipOptions{
		Addr:        *to,
		Producer:    *producer,
		Module:      *module,
		FrameSize:   *frame,
		MaxAttempts: *attempts,
		Throttle:    *throttle,
		Telemetry:   treg,
		Log:         log,
	})
	if err != nil {
		return err
	}
	log.Info("shipped", "bytes", st.Size(), "races", final.Races,
		"degraded", final.Degraded, "complete", final.Complete,
		"elapsed", time.Since(start).String())
	if !*quiet {
		fmt.Print(final.Report)
	} else {
		fmt.Printf("shipped %s: %d races (%d unconfirmed), degraded=%v\n",
			fs.Arg(0), final.Races, final.Unconfirmed, final.Degraded)
	}
	return nil
}
