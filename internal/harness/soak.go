package harness

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"literace/internal/collector"
	"literace/internal/obs"
	"literace/internal/obs/tsdb"
	"literace/internal/trace/faultinject"
	"literace/internal/workloads"
)

// SoakSchema versions the BENCH_soak.json layout; bump it when a field
// changes meaning, never silently.
const SoakSchema = "literace.bench.soak/v1"

// Soak defaults and fixed gate bounds. The CI gate runs the 30-second
// shape; unit tests shrink the first four through SoakConfig.
const (
	DefaultSoakProducers  = 8
	DefaultSoakDuration   = 30 * time.Second
	DefaultSoakInterval   = 250 * time.Millisecond
	DefaultSoakMinSamples = 50
	// DefaultSoakKillEvery faults every Nth shipment cycle with a
	// mid-stream connection kill (and every 2Nth additionally with write
	// fragmentation + bit flips), so the soak continuously exercises
	// park/resume, reorder shedding, and salvage decoding.
	DefaultSoakKillEvery = 3
	// DefaultHeapGrowthMax bounds the linear-growth fraction of the
	// collector heap over the soak (slope x span / mean). A leak that
	// grows the heap past ~2.5x its mean level over the run trips it; GC
	// sawtooth and startup warm-up stay well under.
	DefaultHeapGrowthMax = 2.5
	// DefaultBacklogMax bounds the collector's merge backlog high-water
	// mark (events buffered awaiting merge across all sessions).
	DefaultBacklogMax = 4 << 20
)

// soakWorkloads is the shipment rotation: producer w's cycle c ships
// soakWorkloads[(w+c)%len], so the fleet mixes racy and race-free logs
// deterministically.
var soakWorkloads = []string{"dryad", "lkrhash", "concrt-msg", "lflist"}

// soakTrackedSeries are the series every soak must sample and gate on;
// their presence with >= MinSamples points is itself a gate (a sampler
// that silently stopped is a failed soak, not a quiet one).
var soakTrackedSeries = []struct {
	name string
	kind tsdb.Kind
}{
	{"proc.heap_bytes", tsdb.KindGauge},
	{"proc.goroutines", tsdb.KindGauge},
	{"collector.backlog", tsdb.KindGauge},
	{"collector.sheds", tsdb.KindCounter},
	{"collector.disconnects", tsdb.KindCounter},
}

// SoakConfig shapes one long-haul soak run.
type SoakConfig struct {
	// Producers is the concurrent producer-churn width. 0 = 8.
	Producers int
	// Duration is how long producers keep churning. 0 = 30s.
	Duration time.Duration
	// SampleInterval paces the collector's time-series poller (and the
	// producers' telemetry frames). 0 = 250ms.
	SampleInterval time.Duration
	// MinSamples is the per-tracked-series sample floor gate. 0 = 50.
	MinSamples int
	// Scale multiplies workload sizes when generating the shipped logs.
	Scale int
	// Logf, when non-nil, receives progress lines (stderr, never stdout).
	Logf func(format string, args ...any)
}

func (c *SoakConfig) setDefaults() {
	if c.Producers <= 0 {
		c.Producers = DefaultSoakProducers
	}
	if c.Duration <= 0 {
		c.Duration = DefaultSoakDuration
	}
	if c.SampleInterval <= 0 {
		c.SampleInterval = DefaultSoakInterval
	}
	if c.MinSamples <= 0 {
		c.MinSamples = DefaultSoakMinSamples
	}
}

func (c *SoakConfig) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// SoakSeries is one tracked series' rollup in the artifact. Name and
// Kind are deterministic; the statistics are machine-dependent and
// informational (the gates they feed decide the exit code).
type SoakSeries struct {
	Name       string  `json:"name"`
	Kind       string  `json:"kind"`
	Samples    uint64  `json:"samples"`
	Min        float64 `json:"min"`
	Max        float64 `json:"max"`
	Mean       float64 `json:"mean"`
	Last       float64 `json:"last"`
	GrowthFrac float64 `json:"growth_frac"`
}

// SoakSummary is the machine-readable artifact written by
// `literace bench -soak-out` (and gated by CI): N producers churn
// through one collector for the configured duration under fault
// injection while the collector's time-series store records its own
// vitals, then four gates assert the run was healthy. The config echo,
// tracked-series identity, and gate booleans are deterministic; sample
// statistics and churn counts are informational.
type SoakSummary struct {
	Schema           string  `json:"schema"`
	Producers        int     `json:"producers"`
	DurationSecs     float64 `json:"duration_secs"`
	SampleIntervalMS float64 `json:"sample_interval_ms"`
	Scale            int     `json:"scale"`
	MinSamples       int     `json:"min_samples"`
	// Workloads is the shipment rotation.
	Workloads []string `json:"workloads"`

	// Gates. All four must hold for the soak to pass; Pass is their
	// conjunction and the headline CI assertion.
	SamplesOK      bool `json:"samples_ok"`
	BoundedHeap    bool `json:"bounded_heap"`
	BoundedBacklog bool `json:"bounded_backlog"`
	ShipmentsOK    bool `json:"shipments_ok"`
	Pass           bool `json:"pass"`

	// Tracked series rollups (names/kinds deterministic, stats not).
	Series []SoakSeries `json:"series"`

	// Informational churn and turbulence totals: how much work the soak
	// actually pushed through and how rough the ride was.
	TotalSeries int    `json:"total_series"`
	Shipments   uint64 `json:"shipments"`
	Kills       uint64 `json:"kills"`
	Failures    uint64 `json:"failures"`
	Sheds       uint64 `json:"sheds"`
	Disconnects uint64 `json:"disconnects"`
	Retired     int    `json:"retired"`
	WallNanos   int64  `json:"wall_nanos"`
}

// soakFaults wraps every Nth shipment's connections, N being
// DefaultSoakKillEvery: such a cycle gets a mid-stream kill (the
// connection dies after ~a third of the log, forcing park -> resume from
// the collector's offset), and every second faulted cycle additionally
// fragments writes and flips bits so the salvage path stays hot.
func soakFaults(worker, cycle, logLen int) func(net.Conn) net.Conn {
	if (cycle+worker)%DefaultSoakKillEvery != 0 {
		return nil
	}
	nf := faultinject.NetFaults{
		DropAfter: int64(logLen/3 + worker*1021),
		Seed:      int64(worker*100003 + cycle),
	}
	if (cycle+worker)%(2*DefaultSoakKillEvery) == 0 {
		nf.MaxWrite = 1024
		nf.FlipBitEvery = 256 << 10
	}
	return nf.WrapConn
}

// BuildSoakSummary runs the soak: an in-process collector with a wired
// time-series store, Producers worker loops shipping workload logs
// under unique per-cycle producer names (with kills and fault injection
// per soakFaults) until Duration elapses, then gates on the recorded
// history. The summary reports gate outcomes rather than failing, so
// callers can write the artifact before deciding the exit code.
func BuildSoakSummary(cfg SoakConfig) (*SoakSummary, error) {
	cfg.setDefaults()
	hcfg := Config{Scale: cfg.Scale}
	hcfg.setDefaults()

	logs := make(map[string][]byte, len(soakWorkloads))
	for _, key := range soakWorkloads {
		b, ok := workloads.ByKey(key)
		if !ok {
			return nil, fmt.Errorf("harness: unknown benchmark %q", key)
		}
		data, err := traceBytes(b, 1, hcfg, nil)
		if err != nil {
			return nil, fmt.Errorf("harness: tracing %s: %w", key, err)
		}
		logs[key] = data
	}

	store := tsdb.New(tsdb.Options{Capacity: 4096})
	srv, err := collector.New(collector.Options{
		Obs:        obs.New(),
		TS:         store,
		TSInterval: cfg.SampleInterval,
		// Keep resident finalized sessions well under the churn total so
		// the soak exercises retirement — unbounded residents would turn
		// the bounded-heap gate into a leak detector for our own test.
		RetainFinalized: 2 * cfg.Producers,
		// Generous grace: on a loaded CI box a killed producer's
		// reconnect can sit behind a GC pause, and a session finalized
		// early turns a healthy resume into a spurious shipment failure.
		ResumeGrace: 10 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go func() { _ = srv.Serve(lis) }()

	var shipments, kills, failures atomic.Uint64
	start := time.Now()
	deadline := start.Add(cfg.Duration)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Producers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			preg := obs.New()
			cycles := preg.Counter("soak.cycles")
			for cycle := 0; time.Now().Before(deadline); cycle++ {
				key := soakWorkloads[(w+cycle)%len(soakWorkloads)]
				data := logs[key]
				opts := collector.ShipOptions{
					Addr:              lis.Addr().String(),
					Producer:          fmt.Sprintf("soak-p%02d-c%04d", w, cycle),
					Module:            key,
					MaxAttempts:       20,
					Backoff:           10 * time.Millisecond,
					MaxBackoff:        200 * time.Millisecond,
					Telemetry:         preg,
					TelemetryInterval: cfg.SampleInterval,
				}
				if wrap := soakFaults(w, cycle, len(data)); wrap != nil {
					opts.WrapConn = wrap
					kills.Add(1)
				}
				final, err := collector.ShipBytes(data, opts)
				shipments.Add(1)
				cycles.Inc()
				if err != nil || !final.OK {
					failures.Add(1)
					cfg.logf("soak p%02d cycle %d (%s): %v", w, cycle, key, err)
				}
			}
		}(w)
	}
	wg.Wait()
	// Let the poller take a final sample of the settled state.
	time.Sleep(2 * cfg.SampleInterval)
	wall := time.Since(start)
	sheds, disconnects, _ := srv.Turbulence()
	retired := srv.FleetReport().Retired
	srv.Close()

	dump := store.Dump()
	sum := &SoakSummary{
		Schema:           SoakSchema,
		Producers:        cfg.Producers,
		DurationSecs:     cfg.Duration.Seconds(),
		SampleIntervalMS: float64(cfg.SampleInterval) / float64(time.Millisecond),
		Scale:            cfg.Scale,
		MinSamples:       cfg.MinSamples,
		Workloads:        append([]string(nil), soakWorkloads...),
		SamplesOK:        true,
		BoundedHeap:      true,
		BoundedBacklog:   true,
		TotalSeries:      len(dump.Series),
		Shipments:        shipments.Load(),
		Kills:            kills.Load(),
		Failures:         failures.Load(),
		Sheds:            sheds,
		Disconnects:      disconnects,
		Retired:          retired,
		WallNanos:        wall.Nanoseconds(),
	}
	for _, tr := range soakTrackedSeries {
		sd := dump.Lookup(tr.name)
		if sd == nil {
			sum.SamplesOK = false
			sum.Series = append(sum.Series, SoakSeries{Name: tr.name, Kind: string(tr.kind)})
			cfg.logf("soak gate: series %s never recorded", tr.name)
			continue
		}
		row := SoakSeries{
			Name:       sd.Name,
			Kind:       string(sd.Kind),
			Samples:    sd.Total,
			Min:        sd.Min,
			Max:        sd.Max,
			Mean:       sd.Mean,
			Last:       sd.Last,
			GrowthFrac: sd.GrowthFrac(),
		}
		sum.Series = append(sum.Series, row)
		if sd.Total < uint64(cfg.MinSamples) {
			sum.SamplesOK = false
			cfg.logf("soak gate: %s has %d samples, need %d", sd.Name, sd.Total, cfg.MinSamples)
		}
		switch tr.name {
		case "proc.heap_bytes":
			if gf := row.GrowthFrac; gf > DefaultHeapGrowthMax {
				sum.BoundedHeap = false
				cfg.logf("soak gate: heap growth fraction %.2f exceeds %.2f", gf, DefaultHeapGrowthMax)
			}
		case "collector.backlog":
			if row.Max > DefaultBacklogMax {
				sum.BoundedBacklog = false
				cfg.logf("soak gate: backlog high-water %.0f exceeds %.0f", row.Max, float64(DefaultBacklogMax))
			}
		}
	}
	sum.ShipmentsOK = sum.Failures == 0 && sum.Shipments > 0
	sum.Pass = sum.SamplesOK && sum.BoundedHeap && sum.BoundedBacklog && sum.ShipmentsOK
	cfg.logf("soak: %d shipments (%d killed) by %d producers in %s; %d sheds, %d disconnects, %d retired; pass=%v",
		sum.Shipments, sum.Kills, cfg.Producers, wall.Round(time.Millisecond), sum.Sheds, sum.Disconnects, sum.Retired, sum.Pass)
	return sum, nil
}
