package main

import (
	"bytes"
	"fmt"

	"literace"
)

// fullLogs records each named benchmark once under full logging at seed
// and computes the logs' reference races.
func fullLogs(keys []string, seed int64) ([]*input, error) {
	wbs, err := benchmarks(keys)
	if err != nil {
		return nil, err
	}
	var out []*input
	for _, wb := range wbs {
		prog, err := literace.Assemble(wb.Key, wb.Source(1))
		if err != nil {
			return nil, err
		}
		if _, err := prog.Instrument(); err != nil {
			return nil, err
		}
		var log bytes.Buffer
		if _, err := prog.Run(literace.Config{Sampler: "Full", Seed: seed, LogTo: &log}); err != nil {
			return nil, fmt.Errorf("%s: %w", wb.Key, err)
		}
		in, err := newInput(wb.Key, log.Bytes())
		if err != nil {
			return nil, err
		}
		out = append(out, in)
	}
	return out, nil
}

// detectAll runs literace.Detect once over each input and checks the
// races against the reference; it returns the reports by input.
func (b *bench) detectAll(ins []*input) []*literace.Report {
	reps := make([]*literace.Report, len(ins))
	for i, in := range ins {
		var rep *literace.Report
		if b.call(spanDetect, func() (_ int64, err error) {
			rep, err = literace.Detect(bytes.NewReader(in.data), nil)
			return in.events, err
		}) == nil {
			b.check(in.want.match(in.name, rep))
			reps[i] = rep
		}
	}
	return reps
}

// runFullDetect is the full-detect workload: offline detection over
// complete full-logging traces, where decoding, merging and access
// analysis do all the work.
func runFullDetect(b *bench) error {
	ins, err := setup(b, func() ([]*input, error) { return fullLogs(b.sz.full, b.seed) })
	if err != nil {
		return err
	}
	pass := func() error {
		b.detectAll(ins)
		return nil
	}
	probe := func() error {
		for _, in := range ins {
			if err := b.probeLog(in); err != nil {
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
		return nil
	}
	b.detectMetrics()
	return nil
}
