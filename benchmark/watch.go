package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"literace"
	"literace/internal/collector"
	"literace/internal/stream"
)

// shipProducers is the number of concurrent producers (goroutines, each
// with one connection) shipping to the collector: within the two CPUs
// the benchmark is sized for.
const shipProducers = 2

// session streams one input through a StreamSession with the given shard
// count and checks the report against the reference and, byte for byte,
// against batch detection (nil when that call failed). feeds, when
// non-nil, collects each Feed's wall time in traced passes. It returns
// the pipeline result, nil when the call failed.
func (b *bench) session(name string, in *input, shards int, batch *literace.Report, feeds *series) *stream.Result {
	var rep *literace.Report
	var res *stream.Result
	if b.call(name, func() (_ int64, err error) {
		rep, res, err = b.streamInput(in.data, shards, feeds)
		return in.events, err
	}) != nil {
		return nil
	}
	b.check(in.want.match(in.name+" "+name, rep))
	if batch != nil {
		b.check(sameReport(in.name+" "+name, rep, batch))
	}
	return res
}

// noteStream keeps a traced pass's pipeline friction for the stream
// layer metrics.
func (b *bench) noteStream(res *stream.Result, events int64) {
	if res == nil || !b.tracing {
		return
	}
	var max, sum float64
	for _, n := range res.ShardEvents {
		sum += float64(n)
		max = math.Max(max, float64(n))
	}
	b.count("stream.skew", ratio(max*float64(len(res.ShardEvents)), sum))
	b.count("stream.sessions", 1)
	b.count("stream.backpressure", float64(res.Backpressure))
	b.count("stream.stalls", float64(res.Stalls))
	b.count("stream.events", float64(events))
}

// streamInput feeds data in feedPiece pieces to a streaming session, the
// way `literace watch` tails a growing log.
func (b *bench) streamInput(data []byte, shards int, feeds *series) (*literace.Report, *stream.Result, error) {
	s := literace.NewStreamSession(nil, literace.StreamOptions{Shards: shards})
	err := feed(data, func(p []byte) error {
		t := time.Now()
		err := s.Feed(p)
		if feeds != nil && b.tracing {
			feeds.add(time.Since(t), int64(len(p)))
		}
		return err
	})
	rep, res, ferr := s.Finish()
	switch {
	case err != nil:
		return nil, nil, err
	case ferr != nil:
		return nil, nil, ferr
	case !res.Complete || rep.Degraded:
		return nil, nil, errors.New("stream: a complete log was reported incomplete or degraded")
	}
	return rep, res, nil
}

// fleet ships every input to a fresh in-process collector with default
// options, shipProducers producers at a time, and checks each producer's
// report byte for byte against batch detection. A collector keeps every
// finalized session resident (about 100 MB for a 1M-event log), so one
// per pass keeps the benchmark's heap bounded.
func (b *bench) fleet(ins []*input, batch []*literace.Report) error {
	col, err := startCollector()
	if err != nil {
		return err
	}
	var total int64
	for _, in := range ins {
		total += in.events
	}
	_ = b.call(spanFleet, func() (int64, error) {
		var wg sync.WaitGroup
		for p := 0; p < shipProducers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := p; i < len(ins); i += shipProducers {
					b.ship(p, col.addr, ins[i], batch[i])
				}
			}(p)
		}
		wg.Wait()
		return total, nil
	})
	sheds, disconnects, panics := col.srv.Turbulence()
	b.count("collector.turbulence", float64(sheds+disconnects+panics))
	return col.stop()
}

// shipSeq numbers shipments: every producer name is new to the
// collector, which refuses a name it has finalized.
var shipSeq atomic.Int64

func (b *bench) ship(p int, addr string, in *input, batch *literace.Report) {
	var reply *collector.FinalReply
	if b.callOn(p+1, spanShip, func() (_ int64, err error) {
		reply, err = collector.ShipBytes(in.data, collector.ShipOptions{
			Addr:     addr,
			Producer: fmt.Sprintf("p%d-%s-%d", p, in.name, shipSeq.Add(1)),
			Module:   in.name,
		})
		return in.events, err
	}) != nil {
		return
	}
	switch {
	case reply.Degraded || !reply.Complete:
		b.check(fmt.Errorf("%s: collector reported a complete log degraded or incomplete", in.name))
	case batch != nil && reply.Report != batch.String():
		b.check(fmt.Errorf("%s: collector report differs from batch detect:\n got: %q\nwant: %q", in.name, reply.Report, batch.String()))
	}
}

// collectorServer is an in-process collector on a loopback port with
// default options.
type collectorServer struct {
	srv  *collector.Server
	addr string
	done chan error
}

func startCollector() (*collectorServer, error) {
	srv, err := collector.New(collector.Options{})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	c := &collectorServer{srv: srv, addr: lis.Addr().String(), done: make(chan error, 1)}
	go func() { c.done <- srv.Serve(lis) }()
	return c, nil
}

// stop closes the server and waits for Serve to return.
func (c *collectorServer) stop() error {
	err := c.srv.Close()
	if serr := <-c.done; err == nil {
		err = serr
	}
	return err
}

// runWatchIngest is the watch-ingest workload: the full logs detected in
// batch, fed in 64 KiB pieces to streaming sessions at the default shard
// count, and shipped by two concurrent producers to a collector.
func runWatchIngest(b *bench) error {
	ins, err := setup(b, func() ([]*input, error) { return fullLogs(b.sz.full, b.seed) })
	if err != nil {
		return err
	}
	pass := func() error {
		batch := b.detectAll(ins)
		for i, in := range ins {
			b.noteStream(b.session(spanSession, in, 0, batch[i], &b.feeds), in.events)
		}
		return b.fleet(ins, batch)
	}
	probe := func() error {
		for _, in := range ins {
			b.session(spanNumCPU, in, runtime.NumCPU(), nil, nil)
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
		b.streamLayers(spanSession)
		numCPU := b.stats(true)(spanNumCPU)
		b.m.set("stream.numcpu_shard_mevents_per_s", ratio(numCPU.items*1e3, numCPU.selfNs))
		get := b.stats(false)
		b.m.set("collector.ship_ms_p50", median(b.tr.durations(spanShip))/1e6)
		sessionRate := ratio(get(spanSession).items, get(spanSession).selfNs)
		b.m.set("collector.vs_stream_x", ratio(ratio(get(spanFleet).items, get(spanFleet).totalNs), sessionRate))
		b.m.set("collector.turbulence", b.counts["collector.turbulence"])
		return nil
	}
	b.detectMetrics()
	b.m.set("watch_mevents_per_s", b.series(spanSession).megaPerSecond())
	b.m.set("collector_mevents_per_s", b.series(spanFleet).megaPerSecond())
	return nil
}

// streamLayers derives the streaming layer metrics of the traced passes'
// sessions of the given name against their batch detection.
func (b *bench) streamLayers(name string) {
	all, probe := b.stats(false), b.stats(true)
	inPass := func(name string) *spanStats {
		a, p := all(name), probe(name)
		return &spanStats{selfNs: a.selfNs - p.selfNs, items: a.items - p.items}
	}
	batch, sess := inPass(spanDetect), inPass(name)
	b.m.set("stream.vs_batch_x", ratio(ratio(sess.items, sess.selfNs), ratio(batch.items, batch.selfNs)))
	b.m.set("stream.shard_skew", ratio(b.counts["stream.skew"], b.counts["stream.sessions"]))
	b.m.set("stream.backpressure_per_mevent", ratio(b.counts["stream.backpressure"]*1e6, b.counts["stream.events"]))
	b.m.set("stream.stalls_per_kevent", ratio(b.counts["stream.stalls"]*1e3, b.counts["stream.events"]))
	b.m.set("stream.feed_ms_p90", b.feeds.quantile(0.9)/1e6)
}
