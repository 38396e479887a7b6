package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"literace"
	"literace/internal/trace"
)

// embedSize shapes the embedded Go workload.
type embedSize struct {
	ops     int // operations per worker goroutine
	work    int // private words an operation hashes, unannotated
	keys    int // entries of the shared table
	stripes int // mutexes striping the table
	bucket  int // table words an operation reads under its mutex
	scan    int // read-mostly shared words an operation reads unlocked
}

// Code regions (the embedded front end's unit of sampling) and the
// annotated address spaces of the embedded workload.
const (
	regMain = iota
	regWorker
	regGet
	regPut
	regBump
	numRegions

	tableBase   = 1 << 20
	configBase  = 1 << 24
	counterAddr = 1 << 28
	lockBase    = 1 << 30
)

// embedWorkers is the number of goroutines doing the work: the load
// stays within the two CPUs the benchmark is sized for.
const embedWorkers = 2

// embedState is the shared heap of the embedded workload: a table
// striped over mutexes, a read-mostly configuration array written once
// before the workers start, and a counter both workers bump with no
// common lock — the planted race.
type embedState struct {
	sz      embedSize
	seed    int64
	init    []uint64
	table   []uint64
	config  []uint64
	locks   []sync.Mutex
	counter atomic.Uint64
}

func newEmbedState(sz embedSize, seed int64) *embedState {
	rng := rand.New(rand.NewSource(seed))
	e := &embedState{sz: sz, seed: seed, locks: make([]sync.Mutex, sz.stripes)}
	e.init = make([]uint64, sz.keys*sz.bucket)
	for i := range e.init {
		e.init[i] = rng.Uint64()
	}
	e.table = make([]uint64, len(e.init))
	e.config = make([]uint64, 1024)
	for i := range e.config {
		e.config[i] = rng.Uint64()
	}
	return e
}

// run executes the workload once. sampler "" runs it with no detector;
// otherwise every shared-heap access and lock operation is annotated
// through a literace.Detector with that sampler, logging to log.
func (e *embedState) run(sampler string, log *bytes.Buffer) error {
	copy(e.table, e.init)
	var (
		d    *literace.Detector
		main *literace.Thread
		err  error
	)
	if sampler != "" {
		log.Reset()
		d, err = literace.NewDetector(literace.Options{Regions: numRegions, Sampler: sampler, Seed: e.seed, LogTo: log})
		if err != nil {
			return err
		}
		main = d.Thread(0)
		main.Enter(regMain)
	}
	threads := make([]*literace.Thread, embedWorkers)
	var wg sync.WaitGroup
	for w := range threads {
		if d != nil {
			threads[w] = d.StartThread(main, int32(w+1))
		}
		wg.Add(1)
		go func(w int, th *literace.Thread) {
			defer wg.Done()
			if th != nil {
				th.Enter(regWorker)
			}
			e.worker(th, w)
			if th != nil {
				th.Exit()
				th.End()
			}
		}(w, threads[w])
	}
	wg.Wait()
	if d == nil {
		return nil
	}
	for w := range threads {
		main.Join(int32(w + 1))
	}
	main.Exit()
	if _, err := d.Close(); err != nil {
		return err
	}
	for _, th := range append(threads, main) {
		if err := th.Err(); err != nil {
			return err
		}
	}
	return nil
}

// worker is one goroutine's share: private hashing, unlocked reads of
// the configuration, a locked read (and one time in four a write) of a
// table bucket, and every 256 operations a bump of the racy counter.
// th is nil when running without a detector.
func (e *embedState) worker(th *literace.Thread, w int) {
	sz := e.sz
	rng := rand.New(rand.NewSource(e.seed*7919 + int64(w)))
	priv := make([]uint64, sz.work)
	for i := range priv {
		priv[i] = rng.Uint64()
	}
	// The first bump precedes this goroutine's first lock, so no
	// happens-before edge can order it with the other worker's.
	e.bump(th)
	for i := 0; i < sz.ops; i++ {
		k := rng.Intn(sz.keys)
		put := rng.Intn(4) == 0
		h := uint64(k)
		for j, v := range priv {
			h = (h ^ v) * 0x100000001b3
			priv[j] = v + h
		}
		reg := int32(regGet)
		if put {
			reg = regPut
		}
		if th != nil {
			th.Enter(reg)
		}
		for j := 0; j < sz.scan; j++ {
			a := (k + j*131) % len(e.config)
			if th != nil {
				th.Read(configBase+uint64(a), int32(j))
			}
			h ^= e.config[a]
		}
		s := k % sz.stripes
		base := k * sz.bucket
		e.locks[s].Lock()
		if th != nil {
			th.Lock(lockBase + uint64(s))
		}
		for j := 0; j < sz.bucket; j++ {
			if th != nil {
				th.Read(tableBase+uint64(base+j), int32(sz.scan+j))
			}
			h += e.table[base+j]
		}
		if put {
			if th != nil {
				th.Write(tableBase+uint64(base), int32(sz.scan+sz.bucket))
			}
			e.table[base] = h
		}
		if th != nil {
			th.Unlock(lockBase + uint64(s))
		}
		e.locks[s].Unlock()
		if th != nil {
			th.Exit()
		}
		if i%256 == 255 {
			e.bump(th)
		}
	}
}

// bump increments the shared counter. The real update is atomic, so the
// Go program itself has no data race, but it is annotated as a plain
// read and write: to LiteRace the two workers' bumps race.
func (e *embedState) bump(th *literace.Thread) {
	if th != nil {
		th.Enter(regBump)
		th.Read(counterAddr, 0)
		th.Write(counterAddr, 1)
	}
	e.counter.Add(1)
	if th != nil {
		th.Exit()
	}
}

// plantedRace is the static race the counter bumps plant, as
// literace.Detect names it: the bump region's write against itself.
var plantedRace = [2]string{fmt.Sprintf("fn%d:1", regBump), fmt.Sprintf("fn%d:1", regBump)}

func hasRace(rep *literace.Report, pair [2]string) bool {
	for _, r := range rep.Races {
		if r.First == pair[0] && r.Second == pair[1] {
			return true
		}
	}
	return false
}

// memEvents returns the memory events of a log.
func memEvents(data []byte) (int64, error) {
	log, err := trace.ReadAll(bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	var n int64
	for _, evs := range log.Threads {
		for _, ev := range evs {
			if ev.Kind.IsMem() {
				n++
			}
		}
	}
	return n, nil
}

// runEmbed is the embed-wallclock workload: the same Go workload with no
// detector, under TL-Ad and under full logging, in wall-clock time on
// real goroutines, then offline detection of both logs.
func runEmbed(b *bench) error {
	type embedInputs struct {
		e          *embedState
		tlad, full bytes.Buffer
		fullMem    int64 // annotated accesses of one run
	}
	in, err := setup(b, func() (*embedInputs, error) {
		in := &embedInputs{e: newEmbedState(b.sz.embed, b.seed)}
		// One fully logged run sizes the log: accesses and lock operations
		// per run are fixed by the seed, only their interleaving varies.
		if err := in.e.run("Full", &in.full); err != nil {
			return nil, err
		}
		mem, err := memEvents(in.full.Bytes())
		if err != nil {
			return nil, err
		}
		in.fullMem = mem
		return in, nil
	})
	if err != nil {
		return err
	}
	ops := int64(b.sz.embed.ops * embedWorkers)
	// Each run starts from a collected heap, so no mode pays for the
	// garbage of the one before it.
	runOnce := func(name, sampler string, log *bytes.Buffer) {
		runtime.GC()
		_ = b.call(spanEmbed+"/"+name, func() (int64, error) { return ops, in.e.run(sampler, log) })
	}
	// The full log's detection is the workload's Detect series; the much
	// smaller TL-Ad log's is timed apart so the two sizes do not mix.
	detect := func(span, name string, log *bytes.Buffer, planted bool) {
		data := log.Bytes()
		var rep *literace.Report
		if b.call(span, func() (_ int64, err error) {
			rep, err = literace.Detect(bytes.NewReader(data), nil)
			if err != nil {
				return 0, err
			}
			return int64(rep.MemOpsAnalyzed + rep.SyncOpsAnalyzed), nil
		}) != nil {
			return
		}
		ref, err := newInput(name, data)
		if err != nil {
			b.check(err)
			return
		}
		b.check(ref.want.match(name, rep))
		if planted && !hasRace(rep, plantedRace) {
			b.check(fmt.Errorf("%s: the planted counter race %s<->%s was not reported", name, plantedRace[0], plantedRace[1]))
		}
	}
	pass := func() error {
		runOnce("none", "", nil)
		runOnce("TL-Ad", "TL-Ad", &in.tlad)
		runOnce("Full", "Full", &in.full)
		detect(spanDetect+"/TL-Ad", "embed TL-Ad", &in.tlad, false)
		detect(spanDetect, "embed Full", &in.full, true)
		return nil
	}
	probe := func() error {
		b.probeEmbedCore()
		for _, log := range []*bytes.Buffer{&in.tlad, &in.full} {
			ref, err := newInput("embed", log.Bytes())
			if err != nil {
				return err
			}
			if err := b.probeLog(ref); err != nil {
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
		get := b.stats(true)
		b.m.set("core.embed_ns_per_access_tlad", ratio(get(spanEmbedTLAd).selfNs, 3*get(spanEmbedTLAd).items))
		b.m.set("core.embed_ns_per_access_full", ratio(get(spanEmbedFull).selfNs, 3*get(spanEmbedFull).items))
		b.m.set("core.embed_ns_per_sync", ratio(get(spanEmbedSync).selfNs, 2*get(spanEmbedSync).items))
		mem, err := memEvents(in.tlad.Bytes())
		if err != nil {
			return err
		}
		b.m.set("core.esr", ratio(float64(mem), float64(in.fullMem)))
		return nil
	}
	b.detectMetrics()
	none := b.series(spanEmbed + "/none").quantile(0.5)
	b.m.set("run_overhead_x", b.series(spanEmbed+"/TL-Ad").quantile(0.5)/none)
	b.m.set("full_overhead_x", b.series(spanEmbed+"/Full").quantile(0.5)/none)
	return nil
}

// probeEmbedCore times the embedded front end's per-call costs in one
// goroutine: an annotated access in a region TL-Ad has backed off from,
// a logged access under full logging, and a logged lock operation.
func (b *bench) probeEmbedCore() {
	const n = 1 << 16
	loop := func(name, sampler string, body func(t *literace.Thread, i int)) {
		d, err := literace.NewDetector(literace.Options{Regions: numRegions, Sampler: sampler, Seed: b.seed, LogTo: &bytes.Buffer{}})
		if err != nil {
			b.check(err)
			return
		}
		t := d.Thread(0)
		// Warm the region past TL-Ad's cold-code bursts.
		for i := 0; i < n; i++ {
			body(t, i)
		}
		_ = b.call(name, func() (int64, error) {
			for i := 0; i < n; i++ {
				body(t, i)
			}
			return n, nil
		})
		t.End()
		_, err = d.Close()
		b.check(err)
	}
	access := func(t *literace.Thread, i int) {
		t.Enter(regGet)
		t.Read(tableBase+uint64(i&1023), 0)
		t.Read(tableBase+uint64(i&1023)+1, 1)
		t.Write(tableBase+uint64(i&1023), 2)
		t.Exit()
	}
	loop(spanEmbedTLAd, "TL-Ad", access)
	loop(spanEmbedFull, "Full", access)
	loop(spanEmbedSync, "Full", func(t *literace.Thread, i int) {
		t.Lock(lockBase + uint64(i&63))
		t.Unlock(lockBase + uint64(i&63))
	})
}
