package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"

	"literace"
	"literace/internal/hb"
	"literace/internal/obs"
	"literace/internal/race"
	"literace/internal/trace"
)

// probeLog sends one encoded log through each layer of the detection
// path separately, one spanned call per layer, followed by the
// end-to-end literace.Detect those layers should add up to and a
// one-shard streaming session over the same bytes. It runs only in
// traced passes. Decoding, merging, the engine and race aggregation run
// back to back from one collected heap, as inside literace.Detect, so
// each pays for collecting the garbage of the one before it as it would
// there; every other call starts from a collected heap.
func (b *bench) probeLog(in *input) error {
	n := in.events
	call := func(name string, f func() (int64, error)) error {
		runtime.GC()
		return b.call(name, f)
	}
	var log *trace.Log
	runtime.GC()
	decBytes, decAllocs := allocDelta(func() {
		_ = b.call(spanReadAll, func() (_ int64, err error) {
			log, err = trace.ReadAll(bytes.NewReader(in.data))
			return n, err
		})
	})
	if log == nil {
		return nil // counted as a failed call
	}
	b.count("log.bytes", float64(len(in.data)))
	b.count("log.events", float64(n))
	b.count("decode.bytes", float64(decBytes))
	b.count("decode.allocs", float64(decAllocs))

	_ = b.call(spanReplay, func() (int64, error) {
		return n, hb.Replay(log, func(trace.Event) error { return nil })
	})

	// The engines run over the merged order, materialized untimed; the
	// same replay counts the merge's stalls.
	merged := make([]trace.Event, 0, n)
	reg := obs.New()
	if err := hb.ReplayObs(log, reg, func(e trace.Event) error { merged = append(merged, e); return nil }); err != nil {
		return fmt.Errorf("%s: replaying for the engine probes: %w", in.name, err)
	}
	b.count("merge.stalls", float64(reg.Counter("hb.replay_stalls").Value()))
	var syncOnly []trace.Event
	for _, e := range merged {
		if e.Kind.IsSync() {
			syncOnly = append(syncOnly, e)
		}
	}
	b.count("engine.mem", float64(len(merged)-len(syncOnly)))

	var res *hb.Result
	engBytes, _ := allocDelta(func() {
		_ = b.call(spanEngine, func() (int64, error) {
			d := hb.NewDetector(hb.Options{SamplerBit: hb.AllEvents})
			d.ProcessBatch(merged)
			res = d.Result()
			return n, nil
		})
	})
	b.count("engine.bytes", float64(engBytes))
	b.count("races.dynamic", float64(res.NumRaces))
	_ = b.call(spanAggregate, func() (int64, error) {
		race.NewSet().AddResult(res)
		return int64(len(res.Races)), nil
	})

	_ = call(spanClockOnly, func() (int64, error) {
		hb.NewDetector(hb.Options{SamplerBit: hb.AllEvents}).ProcessBatch(syncOnly)
		return int64(len(syncOnly)), nil
	})
	_ = call(spanEpoch, func() (int64, error) {
		d := hb.NewDetector(hb.Options{SamplerBit: hb.AllEvents, Engine: hb.EngineEpoch})
		d.ProcessBatch(merged)
		if st := d.Result().Epoch; st != nil {
			b.count("epoch.hits", float64(st.FastpathHits))
			b.count("epoch.accesses", float64(st.Accesses))
		}
		return n, nil
	})

	_ = call(spanStream, func() (int64, error) {
		s := trace.NewStream(func(int32, []trace.Event, bool) {})
		if err := feed(in.data, s.Feed); err != nil {
			return n, err
		}
		_, err := s.Finish()
		return n, err
	})
	_ = call(spanEncode, func() (int64, error) { return n, reencode(log, io.Discard) })

	var batch, streamed *literace.Report
	if call(spanDetect, func() (_ int64, err error) {
		batch, err = literace.Detect(bytes.NewReader(in.data), nil)
		return n, err
	}) == nil {
		b.check(in.want.match(in.name+" probe", batch))
	}
	if call(spanOneShard, func() (_ int64, err error) {
		streamed, _, err = b.streamInput(in.data, 1, nil)
		return n, err
	}) == nil && batch != nil {
		b.check(sameReport(in.name+" one-shard stream", streamed, batch))
	}
	return nil
}

// reencode writes a decoded log again, chunk by chunk in its original
// byte order, through a fresh trace.Writer.
func reencode(log *trace.Log, w io.Writer) error {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return err
	}
	off := make(map[int32]int, len(log.Threads))
	for _, c := range log.ChunkOrder {
		t := tw.Thread(c.TID)
		for _, e := range log.Threads[c.TID][off[c.TID] : off[c.TID]+c.N] {
			if err := t.Append(e); err != nil {
				return err
			}
		}
		off[c.TID] += c.N
	}
	return tw.Close(log.Meta)
}

// feed hands data to f in feedPiece pieces.
func feed(data []byte, f func([]byte) error) error {
	for off := 0; off < len(data); off += feedPiece {
		if err := f(data[off:min(off+feedPiece, len(data))]); err != nil {
			return err
		}
	}
	return nil
}

// sameReport requires two reports of one log to render byte for byte
// the same.
func sameReport(what string, got, want *literace.Report) error {
	if g, w := got.String(), want.String(); g != w {
		return fmt.Errorf("%s report differs from batch detect:\n got: %q\nwant: %q", what, g, w)
	}
	return nil
}

// stats aggregates the spans of a traced run; probeOnly keeps those made
// by probes, which see every input once per round.
func (b *bench) stats(probeOnly bool) func(name string) *spanStats {
	var keep func(s, parent *span) bool
	if probeOnly {
		keep = func(s, parent *span) bool { return parent != nil && parent.name == spanProbe }
	}
	st := b.tr.stats(keep)
	return func(name string) *spanStats {
		if s := st[name]; s != nil {
			return s
		}
		return &spanStats{}
	}
}

// ratio is num/den, or 0 when nothing was measured.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetrics derives the per-layer metrics every workload reports from
// the spans and counts of the probe rounds.
func (b *bench) layerMetrics() {
	get := b.stats(true)
	perItem := func(name string) float64 { return ratio(get(name).selfNs, get(name).items) }
	dec, eng, clk, rep := get(spanReadAll), get(spanEngine), get(spanClockOnly), get(spanReplay)
	b.m.set("trace.log_bytes_per_event", ratio(b.counts["log.bytes"], b.counts["log.events"]))
	b.m.set("trace.encode_ns_per_event", perItem(spanEncode))
	b.m.set("trace.decode_ns_per_event", perItem(spanReadAll))
	b.m.set("trace.decode_bytes_per_event", ratio(b.counts["decode.bytes"], dec.items))
	b.m.set("trace.decode_allocs_per_event", ratio(b.counts["decode.allocs"], dec.items))
	b.m.set("trace.stream_decode_ns_per_event", perItem(spanStream))
	b.m.set("hb.merge_ns_per_event", perItem(spanReplay))
	b.m.set("hb.merge_stalls_per_kevent", ratio(b.counts["merge.stalls"]*1e3, rep.items))
	b.m.set("hb.engine_ns_per_event", perItem(spanEngine))
	b.m.set("hb.engine_bytes_per_event", ratio(b.counts["engine.bytes"], eng.items))
	b.m.set("hb.clock_ns_per_sync", perItem(spanClockOnly))
	b.m.set("hb.access_ns_per_mem", ratio(eng.selfNs-clk.selfNs, b.counts["engine.mem"]))
	b.m.set("shadow.epoch_ns_per_event", perItem(spanEpoch))
	b.m.set("shadow.fastpath_frac", ratio(b.counts["epoch.hits"], b.counts["epoch.accesses"]))
	b.m.set("race.aggregate_ns_per_dynrace", perItem(spanAggregate))
	b.m.set("race.dynamic_races", ratio(b.counts["races.dynamic"], float64(b.rounds)))
	layers := dec.selfNs + rep.selfNs + eng.selfNs + get(spanAggregate).selfNs
	b.m.set("detect.explained_frac", ratio(layers, get(spanDetect).selfNs))
	// Faults are counted in the untraced passes, the closed loop the
	// end-to-end metrics time.
	detects := b.series(spanDetect)
	b.m.set("detect.page_faults_per_call", ratio(detects.faults, float64(len(detects.ns))))
	b.m.set("stream.one_shard_mevents_per_s", ratio(get(spanOneShard).items*1e3, get(spanOneShard).selfNs))
	b.m.set("bench.tracing_overhead_frac", ratio(b.traced.quantile(0.5), b.untraced.quantile(0.5))-1)
}
