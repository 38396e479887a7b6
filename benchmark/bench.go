package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"
)

// setupReps is how many times each workload builds its inputs; setup_s
// is the median, and the last build's inputs are the ones measured.
const setupReps = 5

// feedPiece is the piece size logs are fed to streaming sessions in: the
// collector's default frame size, and a tail loop's typical read.
const feedPiece = 64 << 10

// bench is one run of one workload: its settings, the calls it timed,
// the spans of a traced run, and the metrics it reports.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	sz       sizes
	progress io.Writer

	tr      *tracer // non-nil in a traced run
	tracing bool    // the current pass records spans
	warm    bool    // the current pass is the untimed warm-up
	cur     int     // enclosing span of the driving goroutine
	pass    int

	mu        sync.Mutex
	calls     map[string]*series
	counts    map[string]float64
	attempted int
	failed    int

	passWork time.Duration // plain run: time in timed calls this pass
	passes   series        // plain run: per pass, the time in its timed calls
	untraced series        // traced run: untraced pass wall times
	traced   series        // traced run: traced pass wall times
	feeds    series        // traced run: StreamSession.Feed wall times
	rounds   int           // probe rounds completed

	m metricSet
}

func newBench(workload string, seed int64, window time.Duration, traced bool, sz sizes, progress io.Writer) *bench {
	b := &bench{
		workload: workload, seed: seed, window: window, sz: sz, progress: progress,
		cur: -1, calls: make(map[string]*series), counts: make(map[string]float64),
	}
	if traced {
		b.tr = newTracer()
	}
	return b
}

// call times f as one call into a layer; f returns how many items
// (events, instructions) the call processed. In a traced pass it records
// a span; otherwise (outside the warm-up) it adds the wall time to the
// series of that name. Every call counts as attempted, and an error as
// failed.
func (b *bench) call(name string, f func() (int64, error)) error {
	return b.callOn(0, name, f)
}

// callOn is call for a goroutine other than the driving one: lane
// separates its spans, which hang off the driving goroutine's current
// span.
func (b *bench) callOn(lane int, name string, f func() (int64, error)) error {
	id, prev := -1, b.cur
	if b.tracing {
		id = b.tr.begin(name, prev, b.pass, lane)
		if lane == 0 {
			b.cur = id
		}
	}
	faults := pageFaults()
	start := time.Now()
	items, err := f()
	d := time.Since(start)
	faults = pageFaults() - faults
	if b.tracing {
		b.tr.end(id, items)
		if lane == 0 {
			b.cur = prev
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(b.progress, "%s: %s: %v\n", b.workload, name, err)
		return err
	}
	if !b.tracing && !b.warm {
		s := b.calls[name]
		if s == nil {
			s = &series{}
			b.calls[name] = s
		}
		s.add(d, items)
		s.faults += float64(faults)
		if lane == 0 {
			b.passWork += d
		}
	}
	return nil
}

// check counts a wrong output of a call that itself succeeded.
func (b *bench) check(err error) {
	if err == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failed++
	fmt.Fprintf(b.progress, "%s: wrong output: %v\n", b.workload, err)
}

// count accumulates a layer numerator (bytes, stalls, hits) in traced
// probes.
func (b *bench) count(name string, v float64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.counts[name] += v
}

func (b *bench) series(name string) *series {
	if s := b.calls[name]; s != nil {
		return s
	}
	return &series{}
}

// setup builds the workload's inputs setupReps times and records the
// median build time as setup_s. Earlier builds are dropped before the
// next starts, so memory holds one set of inputs.
func setup[T any](b *bench, build func() (T, error)) (T, error) {
	var (
		out   T
		times []float64
	)
	for i := 0; i < setupReps; i++ {
		var zero T
		out = zero
		runtime.GC()
		start := time.Now()
		v, err := build()
		if err != nil {
			return zero, err
		}
		times = append(times, time.Since(start).Seconds())
		out = v
	}
	b.m.set("setup_s", median(times))
	return out, nil
}

// measure runs one untimed warm-up pass, then closed-loop passes until
// the window closes (at least one). A plain run records for each pass
// the time spent in its timed calls, which leaves out checking outputs
// against the reference, and the peak heap. A traced run alternates an
// untraced pass with a traced one followed by probe, the layer-by-layer
// calls, and compares the passes' wall times.
func (b *bench) measure(pass func() error, probe func() error) error {
	b.warm = true
	err := pass()
	b.warm = false
	if err != nil {
		return err
	}
	peak := startHeapPeak()
	start := time.Now()
	err = b.loop(start, pass, probe)
	heap := peak.stop()
	if err != nil {
		return err
	}
	if b.tr == nil {
		b.m.set("pass_ms_p50", b.passes.quantile(0.5)/1e6)
		b.m.set("heap_peak_mb", float64(heap)/1e6)
	}
	fmt.Fprintf(b.progress, "%s: %d passes in %s\n", b.workload, b.pass-1, time.Since(start).Round(time.Millisecond))
	return nil
}

func (b *bench) loop(start time.Time, pass func() error, probe func() error) error {
	for b.pass = 1; b.pass == 1 || time.Since(start) < b.window; b.pass++ {
		if b.tr != nil {
			// The untraced and traced passes compared for the tracing
			// overhead both start from a collected heap.
			runtime.GC()
		}
		t := time.Now()
		b.passWork = 0
		if err := pass(); err != nil {
			return err
		}
		if b.tr == nil {
			b.passes.add(b.passWork, 1)
			continue
		}
		b.untraced.add(time.Since(t), 1)
		runtime.GC()
		if err := b.tracedPass(spanPass, pass, &b.traced); err != nil {
			return err
		}
		if err := b.tracedPass(spanProbe, probe, nil); err != nil {
			return err
		}
		b.rounds++
	}
	return nil
}

// tracedPass runs f under a root span of the given name.
func (b *bench) tracedPass(name string, f func() error, into *series) error {
	b.tracing = true
	b.cur = b.tr.begin(name, -1, b.pass, 0)
	t := time.Now()
	err := f()
	if into != nil {
		into.add(time.Since(t), 1)
	}
	b.tr.end(b.cur, 0)
	b.cur = -1
	b.tracing = false
	return err
}

// detectMetrics reports the gated metrics of the literace.Detect calls.
func (b *bench) detectMetrics() {
	d := b.series(spanDetect)
	b.m.set("detect_ms_p50", d.quantile(0.5)/1e6)
	b.m.set("detect_ms_p90", d.quantile(0.9)/1e6)
	b.m.set("detect_mevents_per_s", d.megaPerSecond())
}

// heapPeak samples the bytes held by heap objects every 10 ms and keeps
// the maximum.
type heapPeak struct {
	stopc chan struct{}
	done  chan uint64
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stopc: make(chan struct{}), done: make(chan uint64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		read := func() {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > peak {
				peak = v
			}
		}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		read()
		for {
			select {
			case <-tick.C:
				read()
			case <-h.stopc:
				read()
				h.done <- peak
				return
			}
		}
	}()
	return h
}

// stop ends sampling and returns the peak; the sampler has exited when
// it returns.
func (h *heapPeak) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// pageFaults returns the page faults the process has taken so far, or 0
// when getrusage fails. The Go runtime returns freed
// heap pages to the kernel, so a closed loop of allocating calls faults
// them back in; that cost is part of every call a user makes.
func pageFaults() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Minflt + ru.Majflt
}

// allocDelta measures what f allocates on the heap: bytes and objects.
func allocDelta(f func()) (bytes, objects uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}
