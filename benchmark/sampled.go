package main

import (
	"bytes"
	"fmt"

	"literace"
	"literace/internal/asm"
	"literace/internal/harness"
	"literace/internal/instrument"
	"literace/internal/interp"
	"literace/internal/lir"
	"literace/internal/race"
	"literace/internal/sampler"
	"literace/internal/workloads"
)

// program is one evaluated LIR program ready to run three ways.
type program struct {
	bench workloads.Benchmark
	src   string
	mod   *lir.Module       // uninstrumented
	prog  *literace.Program // instrumented
	tlad  *input            // its TL-Ad log; runs are deterministic per seed
	instr uint64            // instructions of a TL-Ad run
	esr   float64           // TL-Ad effective sampling rate
	logs  bytes.Buffer      // log sink the timed runs reuse
}

func benchmarks(keys []string) ([]workloads.Benchmark, error) {
	if keys == nil {
		return workloads.Evaluated(), nil
	}
	var out []workloads.Benchmark
	for _, k := range keys {
		wb, ok := workloads.ByKey(k)
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", k)
		}
		out = append(out, wb)
	}
	return out, nil
}

// runSampled is the sampled-run workload: every evaluated program runs
// uninstrumented, under TL-Ad and under full logging, and its TL-Ad log
// goes through literace.Detect — what every LiteRace user pays.
func runSampled(b *bench) error {
	wbs, err := benchmarks(b.sz.sampled)
	if err != nil {
		return err
	}
	progs, err := setup(b, func() ([]*program, error) {
		var out []*program
		for _, wb := range wbs {
			p, err := newProgram(wb, b.seed)
			if err != nil {
				return nil, err
			}
			out = append(out, p)
		}
		return out, nil
	})
	if err != nil {
		return err
	}

	pass := func() error {
		for _, p := range progs {
			b.runThreeWays(p)
			var rep *literace.Report
			if b.call(spanDetect, func() (_ int64, err error) {
				rep, err = literace.Detect(bytes.NewReader(p.logs.Bytes()), nil)
				return p.tlad.events, err
			}) == nil {
				b.check(p.tlad.want.match(p.bench.Key+" TL-Ad", rep))
			}
		}
		return nil
	}
	probe := func() error {
		for _, p := range progs {
			b.probeProgram(p)
			if err := b.probeLog(p.tlad); err != nil {
				return err
			}
		}
		return nil
	}
	if err := b.measure(pass, probe); err != nil {
		return err
	}

	if b.tr != nil {
		b.layerMetrics()
		b.sampledLayers(progs)
		b.detectRate(progs)
		return nil
	}
	b.detectMetrics()
	var base, tlad, full, instrs, ns float64
	for _, p := range progs {
		k := p.bench.Key
		base += b.series(spanInterp + "/" + k).quantile(0.5)
		tl := b.series(spanRun + "/TL-Ad/" + k)
		tlad += tl.quantile(0.5)
		full += b.series(spanRun + "/Full/" + k).quantile(0.5)
		instrs += tl.items
		ns += tl.total()
	}
	b.m.set("run_overhead_x", tlad/base)
	b.m.set("full_overhead_x", full/base)
	b.m.set("run_minstr_per_s", instrs/ns*1e3)
	return nil
}

// newProgram assembles and instruments one benchmark and records its
// TL-Ad log at seed with the log's reference races.
func newProgram(wb workloads.Benchmark, seed int64) (*program, error) {
	p := &program{bench: wb, src: wb.Source(1)}
	var err error
	if p.mod, err = asm.Assemble(wb.Key, p.src); err != nil {
		return nil, err
	}
	if p.prog, err = literace.Assemble(wb.Key, p.src); err != nil {
		return nil, err
	}
	if _, err := p.prog.Instrument(); err != nil {
		return nil, err
	}
	var log bytes.Buffer
	res, err := p.prog.Run(literace.Config{Sampler: "TL-Ad", Seed: seed, LogTo: &log})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", wb.Key, err)
	}
	if p.tlad, err = newInput(wb.Key, log.Bytes()); err != nil {
		return nil, err
	}
	p.instr, p.esr = res.Meta.Instrs, res.EffectiveRate
	return p, nil
}

// runThreeWays runs p uninstrumented, under full logging and under
// TL-Ad; the TL-Ad log is left in p.logs.
func (b *bench) runThreeWays(p *program) {
	key := p.bench.Key
	base := func() (int64, error) {
		m, err := interp.New(p.mod, interp.Options{Seed: b.seed})
		if err != nil {
			return 0, err
		}
		res, err := m.Run()
		if err != nil {
			return 0, err
		}
		return int64(res.Instrs), nil
	}
	if b.tracing {
		_, allocs := allocDelta(func() { _ = b.call(spanInterp+"/"+key, base) })
		b.count("interp.allocs", float64(allocs))
		b.count("interp.runs", 1)
	} else {
		_ = b.call(spanInterp+"/"+key, base)
	}
	for _, s := range []string{"Full", "TL-Ad"} {
		p.logs.Reset()
		var res *literace.RunResult
		if b.call(spanRun+"/"+s+"/"+key, func() (_ int64, err error) {
			res, err = p.prog.Run(literace.Config{Sampler: s, Seed: b.seed, LogTo: &p.logs})
			if err != nil {
				return 0, err
			}
			return int64(res.Meta.Instrs), nil
		}) != nil {
			continue
		}
		switch {
		case s == "TL-Ad" && res.Meta.Instrs != p.instr:
			b.check(fmt.Errorf("%s: TL-Ad run executed %d instructions, setup run %d", key, res.Meta.Instrs, p.instr))
		case s == "Full" && b.tracing:
			b.count("full.memops", float64(res.LoggedMemOps))
			b.count("full.events", float64(res.LoggedMemOps+res.Meta.SyncOps))
		}
	}
}

// probeProgram times the front end: assembling and rewriting p.
func (b *bench) probeProgram(p *program) {
	var mod *lir.Module
	if b.call(spanAssemble, func() (_ int64, err error) {
		mod, err = asm.Assemble(p.bench.Key, p.src)
		return 1, err
	}) != nil {
		return
	}
	_ = b.call(spanRewrite, func() (int64, error) {
		_, st, err := instrument.Rewrite(mod, instrument.Options{Mode: instrument.ModeSampled})
		if err == nil {
			b.count("rewrite.orig", float64(st.OrigInstrs))
			b.count("rewrite.final", float64(st.FinalInstrs))
		}
		return 1, err
	})
}

// sampledLayers derives the front-end, interpreter and runtime layer
// metrics from the traced passes.
func (b *bench) sampledLayers(progs []*program) {
	get := b.stats(false)
	perCall := func(name string) float64 { return ratio(get(name).selfNs, float64(get(name).count)) }
	b.m.set("asm.assemble_ms", perCall(spanAssemble)/1e6)
	b.m.set("instrument.rewrite_ms", perCall(spanRewrite)/1e6)
	b.m.set("instrument.code_growth_x", ratio(b.counts["rewrite.final"], b.counts["rewrite.orig"]))

	var baseNs, baseInstrs, tladNs, tladInstrs, fullNs, tladEvents, esr float64
	for _, p := range progs {
		k := p.bench.Key
		baseNs += get(spanInterp + "/" + k).selfNs
		baseInstrs += get(spanInterp + "/" + k).items
		tladNs += get(spanRun + "/TL-Ad/" + k).selfNs
		tladInstrs += get(spanRun + "/TL-Ad/" + k).items
		fullNs += get(spanRun + "/Full/" + k).selfNs
		tladEvents += float64(p.tlad.events)
		esr += p.esr
	}
	b.m.set("interp.base_ns_per_instr", ratio(baseNs, baseInstrs))
	b.m.set("interp.base_allocs_per_run", ratio(b.counts["interp.allocs"], b.counts["interp.runs"]))
	// Runtime cost net of interpreting and of encoding the logged events,
	// which the trace layer accounts for.
	encode, _ := b.m.get("trace.encode_ns_per_event")
	rounds := float64(b.rounds)
	b.m.set("core.instr_ns_per_instr", ratio(tladNs-baseNs-encode*tladEvents*rounds, tladInstrs))
	b.m.set("core.full_ns_per_memop", ratio(fullNs-baseNs-encode*b.counts["full.events"], b.counts["full.memops"]))
	b.m.set("core.esr", esr/float64(len(progs)))
}

// detectRate measures TL-Ad's detection rate by the paper's §5.3 method:
// one fully logged run per program with TL-Ad as a shadow sampler, the
// static races on TL-Ad's share of the log against all of them.
func (b *bench) detectRate(progs []*program) {
	var found, truth float64
	for _, p := range progs {
		_ = b.call(spanComparison, func() (int64, error) {
			run, err := harness.RunComparisonWith(p.bench, b.seed, harness.Config{Scale: 1},
				[]sampler.Strategy{sampler.NewThreadLocalAdaptive()})
			if err != nil {
				return 0, err
			}
			all := run.Truth.Races()
			found += race.DetectionRate(run.BySampler["TL-Ad"], all) * float64(len(all))
			truth += float64(len(all))
			return int64(run.Meta.Instrs), nil
		})
	}
	b.m.set("sampler.tlad_detect_rate", ratio(found, truth))
}
