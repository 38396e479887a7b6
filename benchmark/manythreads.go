package main

import (
	"bytes"
	"math/rand"

	"literace"
)

// manySize shapes the many-threads log.
type manySize struct {
	threads int // threads, the main one included
	events  int // events the worker threads log, roughly
	syncPct int // percentage of events that are lock operations
	groups  int // locks; worker t shares lock t%groups with its group
	races   int // planted races
}

// Regions and address spaces of the many-threads log.
const (
	manyRegMain = iota
	manyRegWork
	manyRegRace
	manyRegLock
	manyRegions

	privateBase = 1 << 20
	sharedBase  = 1 << 24
	racyBase    = 1 << 28
	manyLocks   = 1 << 30
	privWords   = 32
)

// manyThreadsLog generates the many-threads log at seed through the
// embedded front end under full logging, from one goroutine: the main
// thread forks every worker, each worker's first access may be a planted
// race, and then seeded interleaved steps have each worker touch its
// private words or, in a share of steps, take its group's lock and
// update the word that lock guards. Workers only ever communicate within
// their group, so vector clocks stay wide while edges stay sparse.
func manyThreadsLog(sz manySize, seed int64) ([]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	var buf bytes.Buffer
	d, err := literace.NewDetector(literace.Options{Regions: manyRegions, Sampler: "Full", Seed: seed, LogTo: &buf})
	if err != nil {
		return nil, err
	}
	main := d.Thread(0)
	main.Enter(manyRegMain)
	workers := make([]*literace.Thread, sz.threads-1)
	for i := range workers {
		workers[i] = d.StartThread(main, int32(i+1))
		workers[i].Enter(manyRegWork)
	}
	// A planted race: two workers write one address before either takes
	// a lock, so nothing orders the writes.
	for r := 0; r < sz.races; r++ {
		a := rng.Intn(len(workers))
		c := (a + 1 + rng.Intn(len(workers)-1)) % len(workers)
		for _, w := range []*literace.Thread{workers[a], workers[c]} {
			w.Enter(manyRegRace)
			w.Write(racyBase+uint64(r), int32(r))
			w.Exit()
		}
	}
	// A lock step logs 2 lock and 2 memory events, a private step one
	// memory event; p makes lock events syncPct percent of the total.
	s := float64(sz.syncPct) / 100
	p := s / (2 - 3*s)
	budget := make([]int, len(workers))
	active := make([]int, len(workers))
	for i := range workers {
		budget[i] = sz.events / len(workers)
		active[i] = i
	}
	for len(active) > 0 {
		k := rng.Intn(len(active))
		i := active[k]
		w := workers[i]
		if rng.Float64() < p {
			g := uint64((i + 1) % sz.groups)
			w.Enter(manyRegLock)
			w.Lock(manyLocks + g)
			w.Read(sharedBase+g, 0)
			w.Write(sharedBase+g, 1)
			w.Unlock(manyLocks + g)
			w.Exit()
			budget[i] -= 4
		} else {
			addr := privateBase + uint64(i)*privWords + uint64(rng.Intn(privWords))
			if rng.Intn(3) == 0 {
				w.Write(addr, 1)
			} else {
				w.Read(addr, 0)
			}
			budget[i]--
		}
		if budget[i] <= 0 {
			w.Exit()
			w.End()
			active[k] = active[len(active)-1]
			active = active[:len(active)-1]
		}
	}
	for i := range workers {
		main.Join(int32(i + 1))
	}
	main.Exit()
	main.End()
	if _, err := d.Close(); err != nil {
		return nil, err
	}
	for _, w := range append(workers, main) {
		if err := w.Err(); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// runManyThreads is the many-threads workload: one 256-thread log with
// sparse lock communication through literace.Detect and a one-shard
// streaming session, where vector-clock joins and the wide merge
// dominate.
func runManyThreads(b *bench) error {
	in, err := setup(b, func() (*input, error) {
		data, err := manyThreadsLog(b.sz.many, b.seed)
		if err != nil {
			return nil, err
		}
		return newInput("many-threads", data)
	})
	if err != nil {
		return err
	}
	ins := []*input{in}
	pass := func() error {
		batch := b.detectAll(ins)
		b.noteStream(b.session(spanOneShard, in, 1, batch[0], &b.feeds), in.events)
		return nil
	}
	probe := func() error { return b.probeLog(in) }
	if err := b.measure(pass, probe); err != nil {
		return err
	}
	if b.tr != nil {
		b.layerMetrics()
		b.streamLayers(spanOneShard)
		return nil
	}
	b.detectMetrics()
	b.m.set("watch_mevents_per_s", b.series(spanOneShard).megaPerSecond())
	return nil
}
