package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"literace"
	"literace/internal/forensics"
	"literace/internal/obs"
)

// cmdExplain builds the forensic race report: not just *which* static
// pairs raced (detect's answer) but *why* — immutable vector-clock
// evidence from both sides of every occurrence, each thread's
// synchronization frontier, held locksets, a reconstructed witness
// interleaving, sampling-burst attribution, and the near-miss table.
//
// Two forms:
//
//	literace explain <prog.lir>             run the program, then explain
//	literace explain <log.trc> -src p.lir   explain an existing log
//
// The first form executes the instrumented program (deterministic per
// -sampler/-seed/-scale) and analyzes its in-memory log with evidence
// capture on; coverage profiling is forced so each racing access can be
// attributed to the sampling burst that captured it. The second form
// salvage-decodes an existing log (damage tolerated and accounted);
// burst attribution is unavailable there. Output — text by default,
// HTML with -html, JSON with -json — is byte-stable per
// (module, sampler, scale, seed).
//
// Unlike detect, explain always exits 0 when analysis succeeds, races
// found or not: it is a forensic viewer, not a gate.
func cmdExplain(args []string) error {
	fs := flag.NewFlagSet("explain", flag.ExitOnError)
	samplerName := fs.String("sampler", "TL-Ad", "sampling strategy (program form)")
	seed := fs.Int64("seed", 1, "scheduler seed (program form)")
	scale := fs.Int("scale", 0, "workload scale echoed into the report header")
	srcPath := fs.String("src", "", "original .lir source, to resolve function names (log form)")
	margin := fs.Int("margin", 0, "near-miss margin in clock ticks (0 = default, negative disables)")
	window := fs.Int("window", 0, "witness half-window per thread (0 = default, negative disables)")
	maxOcc := fs.Int("max-occ", 0, "max dynamic occurrences detailed per race (0 = default)")
	outPath := fs.String("o", "", "write the report to this file instead of stdout")
	asHTML := fs.Bool("html", false, "render a self-contained HTML page")
	asJSON := fs.Bool("json", false, "emit the literace.forensics/v1 JSON document")
	metricsPath := fs.String("metrics", "", "write a JSON telemetry snapshot to this file")
	lcfg := addLogFlags(fs)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("explain wants one input file (a .lir program or a .trc log)")
	}
	if *asHTML && *asJSON {
		return fmt.Errorf("explain: pick one of -html and -json")
	}
	log, err := lcfg.logger("explain")
	if err != nil {
		return err
	}
	fc := literace.ForensicConfig{
		Window:         *window,
		MaxOccurrences: *maxOcc,
		NearMissMargin: *margin,
		Scale:          *scale,
	}
	var reg *obs.Registry
	if *metricsPath != "" {
		reg = obs.New()
	}

	var rep *forensics.Report
	if strings.HasSuffix(fs.Arg(0), ".lir") {
		p, err := loadProgram(fs.Arg(0))
		if err != nil {
			return err
		}
		if _, err := p.Instrument(); err != nil {
			return err
		}
		r, res, err := p.Explain(literace.Config{
			Sampler: *samplerName, Seed: *seed, Obs: reg, Log: log,
		}, fc)
		if err != nil {
			return err
		}
		log.Info("explained run",
			"sampler", *samplerName, "seed", *seed,
			"mem_ops", res.Meta.MemOps, "logged", res.LoggedMemOps,
			"races", len(r.Races), "near_misses", len(r.NearMisses))
		rep = r
	} else {
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		defer f.Close()
		var resolve func(int32) string
		if *srcPath != "" {
			p, err := loadProgram(*srcPath)
			if err != nil {
				return err
			}
			resolve = p.FuncName
		}
		r, srep, err := literace.ExplainLog(f, resolve, fc, reg)
		if err != nil {
			return err
		}
		if srep.Lossy() {
			log.Warn("salvage decode", "summary", srep.Summary())
		}
		log.Info("explained log",
			"races", len(r.Races), "near_misses", len(r.NearMisses), "degraded", r.Degraded)
		rep = r
	}

	var out []byte
	switch {
	case *asHTML:
		out = []byte(rep.HTML())
	case *asJSON:
		out, err = rep.MarshalStable()
		if err != nil {
			return err
		}
	default:
		out = []byte(rep.Text())
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			return err
		}
		log.Info("wrote forensic report", "file", *outPath, "bytes", len(out))
	} else {
		if _, err := os.Stdout.Write(out); err != nil {
			return err
		}
	}
	return writeMetrics(*metricsPath, reg)
}
