// Package harness drives the paper's experiments end to end: it
// instruments each benchmark, executes it under the required
// configurations, runs the offline detectors over the logs, and aggregates
// the numbers behind every table and figure in §5.
package harness

import (
	"bytes"
	"fmt"
	"io"

	"literace/internal/core"
	"literace/internal/hb"
	"literace/internal/instrument"
	"literace/internal/interp"
	"literace/internal/obs"
	"literace/internal/race"
	"literace/internal/sampler"
	"literace/internal/trace"
	"literace/internal/workloads"
)

// Config controls a harness run.
type Config struct {
	// Seeds are the scheduler seeds; the paper runs each benchmark three
	// times (§5.3). Default {1, 2, 3}.
	Seeds []int64
	// Scale multiplies workload sizes; 0 uses each benchmark's default.
	Scale int
	// Cost is the instrumentation cost model; zero value selects the
	// calibrated default.
	Cost core.CostModel
	// MaxInstrs bounds each execution; 0 uses a generous default.
	MaxInstrs uint64
	// Logf, when non-nil, receives progress lines. Callers must route
	// these to stderr (or a log file): stdout is reserved for the
	// machine-parseable tables.
	Logf func(format string, args ...any)
	// Obs, when non-nil, threads the observability registry through every
	// execution: each benchmark run records a phase span and the runtime,
	// interpreter, trace writer, and detector publish their telemetry, so
	// metrics land next to the paper tables (racebench -metrics-out).
	Obs *obs.Registry
	// Ledger, when non-empty, is a run-report ledger directory the
	// coverage-accumulation experiment appends to and reads its cumulative
	// tallies from (see RunCoverageCurve); other experiments ignore it.
	Ledger string
}

func (c *Config) setDefaults() {
	if len(c.Seeds) == 0 {
		c.Seeds = []int64{1, 2, 3}
	}
	if c.Cost == (core.CostModel{}) {
		c.Cost = core.DefaultCostModel()
	}
	if c.MaxInstrs == 0 {
		c.MaxInstrs = 2_000_000_000
	}
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// ComparisonRun is one §5.3-methodology execution: full logging with every
// evaluated sampler's dispatch decision recorded as a mask bit, then one
// detection pass per sampler over the same interleaving.
type ComparisonRun struct {
	Benchmark workloads.Benchmark
	Seed      int64
	Meta      trace.Meta

	// Truth is the static race set found on the complete log.
	Truth *race.Set
	// RareTruth and FreqTruth partition Truth by the Table 4 rule.
	RareTruth, FreqTruth []*race.Static
	// BySampler maps sampler name -> races found on that sampler's subset.
	BySampler map[string]*race.Set
	// Rates maps sampler name -> effective sampling rate in this run.
	Rates map[string]float64
}

// NonStackMemOps returns the §5.3.1 rarity denominator for this run.
func (r *ComparisonRun) NonStackMemOps() uint64 {
	return r.Meta.MemOps - r.Meta.StackMemOps
}

// RunComparison executes benchmark b once under full logging with the
// seven Table 3 shadow samplers and evaluates each on the resulting log.
func RunComparison(b workloads.Benchmark, seed int64, cfg Config) (*ComparisonRun, error) {
	return RunComparisonWith(b, seed, cfg, sampler.Evaluated())
}

// RunComparisonWith is RunComparison with a caller-chosen shadow set; the
// ablation experiments use it to sweep sampler parameters.
func RunComparisonWith(b workloads.Benchmark, seed int64, cfg Config, shadows []sampler.Strategy) (*ComparisonRun, error) {
	cfg.setDefaults()
	span := cfg.Obs.StartSpan(fmt.Sprintf("harness.compare.%s.seed%d", b.Key, seed))
	data, err := traceBytes(b, seed, cfg, shadows)
	if err != nil {
		return nil, err
	}
	log, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}

	out := &ComparisonRun{
		Benchmark: b, Seed: seed, Meta: log.Meta,
		BySampler: make(map[string]*race.Set, len(shadows)),
		Rates:     make(map[string]float64, len(shadows)),
	}

	// Ground truth: every logged access.
	full, err := hb.Detect(log, hb.Options{SamplerBit: hb.AllEvents, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	out.Truth = race.NewSet()
	out.Truth.AddResult(full)
	out.RareTruth, out.FreqTruth = out.Truth.Split(out.NonStackMemOps())

	for i, s := range shadows {
		dres, err := hb.Detect(log, hb.Options{SamplerBit: i, Obs: cfg.Obs})
		if err != nil {
			return nil, err
		}
		set := race.NewSet()
		set.AddResult(dres)
		out.BySampler[s.Name()] = set
		out.Rates[s.Name()] = log.Meta.EffectiveRate(i)
		cfg.Obs.Gauge(fmt.Sprintf("harness.esr.%s.seed%d.%s", b.Key, seed, s.Name())).Set(out.Rates[s.Name()])
	}
	span.EndItems(log.Meta.Instrs)
	cfg.logf("compared %s seed %d: %d races (%d rare), %d mem ops",
		b.Key, seed, out.Truth.Len(), len(out.RareTruth), log.Meta.MemOps)
	return out, nil
}

// traceBytes executes b once under full logging — an always-on primary
// logs every memory and sync operation, and each shadow sampler's
// dispatch decision is recorded as a mask bit — and returns the encoded
// log. cfg must already carry its defaults.
func traceBytes(b workloads.Benchmark, seed int64, cfg Config, shadows []sampler.Strategy) ([]byte, error) {
	mod, err := b.Module(cfg.Scale)
	if err != nil {
		return nil, err
	}
	rw, _, err := instrument.Rewrite(mod, instrument.Options{Mode: instrument.ModeSampled})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	w.SetObs(cfg.Obs)
	rt, err := core.NewRuntime(core.Config{
		NumFuncs:      len(mod.Funcs),
		Primary:       sampler.NewFull(),
		Shadows:       shadows,
		Writer:        w,
		EnableMemLog:  true,
		EnableSyncLog: true,
		Seed:          seed,
		Cost:          cfg.Cost,
		Obs:           cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	mach, err := interp.New(rw, interp.Options{Seed: seed, Runtime: rt, MaxInstrs: cfg.MaxInstrs, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	res, err := mach.Run()
	if err != nil {
		return nil, fmt.Errorf("harness: %s seed %d: %w", b.Key, seed, err)
	}
	if err := w.Close(mach.Meta(res)); err != nil {
		return nil, err
	}
	rt.PublishESR(res.MemOps)
	return buf.Bytes(), nil
}

// OverheadMode selects an instrumentation configuration of the §5.4
// overhead study.
type OverheadMode int

const (
	// OverheadBaseline runs the original, uninstrumented module.
	OverheadBaseline OverheadMode = iota
	// OverheadDispatch adds only the dispatch checks (no logging).
	OverheadDispatch
	// OverheadDispatchSync adds dispatch checks and sync logging.
	OverheadDispatchSync
	// OverheadLiteRace is the full LiteRace configuration: dispatch
	// checks, sync logging, and sampled memory logging under TL-Ad.
	OverheadLiteRace
	// OverheadFullLogging is the comparison implementation: every memory
	// and sync operation logged, with no dispatch checks or clones.
	OverheadFullLogging

	numOverheadModes
)

// NumOverheadModes is the number of overhead configurations.
const NumOverheadModes = int(numOverheadModes)

func (m OverheadMode) String() string {
	switch m {
	case OverheadBaseline:
		return "baseline"
	case OverheadDispatch:
		return "dispatch"
	case OverheadDispatchSync:
		return "dispatch+sync"
	case OverheadLiteRace:
		return "literace"
	case OverheadFullLogging:
		return "full-logging"
	}
	return "unknown"
}

// OverheadRun is the outcome of one overhead configuration.
type OverheadRun struct {
	Mode     OverheadMode
	Cycles   uint64 // virtual cycles including instrumentation
	Base     uint64 // application cycles only
	LogBytes uint64
	WallNs   int64
	Stats    core.Stats
}

// RunOverhead executes b under one overhead configuration.
func RunOverhead(b workloads.Benchmark, mode OverheadMode, seed int64, cfg Config) (*OverheadRun, error) {
	cfg.setDefaults()
	span := cfg.Obs.StartSpan(fmt.Sprintf("harness.overhead.%s.%s.seed%d", b.Key, mode, seed))
	mod, err := b.Module(cfg.Scale)
	if err != nil {
		return nil, err
	}

	var rt *core.Runtime
	var w *trace.Writer
	run := mod
	if mode != OverheadBaseline {
		imode := instrument.ModeSampled
		primary := sampler.Strategy(sampler.NewThreadLocalAdaptive())
		if mode == OverheadFullLogging {
			imode = instrument.ModeFull
			primary = sampler.NewFull()
		}
		run, _, err = instrument.Rewrite(mod, instrument.Options{Mode: imode})
		if err != nil {
			return nil, err
		}
		logsSync := mode == OverheadDispatchSync || mode == OverheadLiteRace || mode == OverheadFullLogging
		logsMem := mode == OverheadLiteRace || mode == OverheadFullLogging
		if logsSync || logsMem {
			w, err = trace.NewWriter(io.Discard)
			if err != nil {
				return nil, err
			}
			w.SetObs(cfg.Obs)
		}
		rt, err = core.NewRuntime(core.Config{
			NumFuncs:      len(mod.Funcs),
			Primary:       primary,
			Writer:        w,
			EnableSyncLog: logsSync,
			EnableMemLog:  logsMem,
			Seed:          seed,
			Cost:          cfg.Cost,
			Obs:           cfg.Obs,
		})
		if err != nil {
			return nil, err
		}
	}

	mach, err := interp.New(run, interp.Options{Seed: seed, Runtime: rt, MaxInstrs: cfg.MaxInstrs, Obs: cfg.Obs})
	if err != nil {
		return nil, err
	}
	res, err := mach.Run()
	if err != nil {
		return nil, fmt.Errorf("harness: %s %v seed %d: %w", b.Key, mode, seed, err)
	}
	out := &OverheadRun{
		Mode:   mode,
		Cycles: res.Cycles,
		Base:   res.BaseCycles,
		WallNs: res.Wall.Nanoseconds(),
		Stats:  res.RuntimeStats,
	}
	if w != nil {
		meta := mach.Meta(res)
		// The trailer embeds the meta JSON, so a wall-clock field would
		// let LogBytes drift by a digit run to run; the size measurement
		// must be as reproducible as the cycle counts (WallNs carries the
		// timing separately).
		meta.WallNanos = 0
		if err := w.Close(meta); err != nil {
			return nil, err
		}
		out.LogBytes = w.BytesWritten()
	}
	span.EndItems(res.Instrs)
	cfg.logf("overhead %s %v seed %d: %d cycles, %d log bytes", b.Key, mode, seed, out.Cycles, out.LogBytes)
	return out, nil
}
