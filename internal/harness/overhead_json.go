package harness

import "literace/internal/workloads"

// OverheadSummarySchema versions the BENCH_overhead.json layout; bump it
// when a field changes meaning, never silently.
const OverheadSummarySchema = "literace.bench.overhead/v1"

// OverheadBenchmark is one benchmark's overhead and sampling numbers in
// the stable benchmark-artifact schema.
type OverheadBenchmark struct {
	Key            string  `json:"key"`
	Name           string  `json:"name"`
	Micro          bool    `json:"micro"`
	BaselineCycles uint64  `json:"baseline_cycles"`
	LiteRaceCycles uint64  `json:"literace_cycles"`
	FullCycles     uint64  `json:"full_cycles"`
	LiteRaceX      float64 `json:"literace_x"` // slowdown vs baseline
	FullX          float64 `json:"full_x"`
	LogBytes       uint64  `json:"log_bytes"` // LiteRace-mode log size
	FullLogBytes   uint64  `json:"full_log_bytes"`
	// ESR maps sampler name to this benchmark's effective sampling rate
	// (§5.3 methodology); absent for microbenchmarks, which are not part
	// of the comparison study.
	ESR map[string]float64 `json:"esr,omitempty"`
}

// OverheadSampler is one sampler's cross-benchmark ESR summary (the
// Table 3 numbers).
type OverheadSampler struct {
	Name        string  `json:"name"`
	WeightedESR float64 `json:"weighted_esr"`
	AvgESR      float64 `json:"avg_esr"`
}

// OverheadSummary is the machine-readable benchmark artifact written by
// `literace bench -overhead-out` (and uploaded by CI). For a fixed
// (scale, seed) the interpreter is deterministic and the schema
// deliberately excludes wall-clock, so every field reproduces
// bit-for-bit across runs and machines.
type OverheadSummary struct {
	Schema     string              `json:"schema"`
	Scale      int                 `json:"scale"`
	Seed       int64               `json:"seed"`
	Benchmarks []OverheadBenchmark `json:"benchmarks"`
	Samplers   []OverheadSampler   `json:"samplers"`
}

// BuildOverheadSummary runs the overhead configurations (baseline,
// LiteRace, full logging) for every benchmark plus a single-seed
// comparison study for the ESR numbers, using cfg.Seeds[0].
func BuildOverheadSummary(cfg Config) (*OverheadSummary, error) {
	cfg.setDefaults()
	seed := cfg.Seeds[0]
	sum := &OverheadSummary{Schema: OverheadSummarySchema, Scale: cfg.Scale, Seed: seed}

	for _, b := range workloads.All() {
		row := OverheadBenchmark{Key: b.Key, Name: b.Name, Micro: b.Micro}
		for _, mode := range []OverheadMode{OverheadBaseline, OverheadLiteRace, OverheadFullLogging} {
			r, err := RunOverhead(b, mode, seed, cfg)
			if err != nil {
				return nil, err
			}
			switch mode {
			case OverheadBaseline:
				row.BaselineCycles = r.Cycles
			case OverheadLiteRace:
				row.LiteRaceCycles = r.Cycles
				row.LogBytes = r.LogBytes
			case OverheadFullLogging:
				row.FullCycles = r.Cycles
				row.FullLogBytes = r.LogBytes
			}
		}
		if row.BaselineCycles > 0 {
			row.LiteRaceX = float64(row.LiteRaceCycles) / float64(row.BaselineCycles)
			row.FullX = float64(row.FullCycles) / float64(row.BaselineCycles)
		}
		sum.Benchmarks = append(sum.Benchmarks, row)
	}

	// Single-seed comparison study: per-benchmark and aggregate ESR.
	cmpCfg := cfg
	cmpCfg.Seeds = []int64{seed}
	matrix, err := RunComparisons(cmpCfg)
	if err != nil {
		return nil, err
	}
	byKey := map[string]map[string]float64{}
	for key, runs := range matrix.Runs {
		for _, run := range runs {
			rates := make(map[string]float64, len(run.Rates))
			for name, r := range run.Rates {
				rates[name] = r
			}
			byKey[key] = rates
		}
	}
	for i := range sum.Benchmarks {
		sum.Benchmarks[i].ESR = byKey[sum.Benchmarks[i].Key]
	}
	for _, row := range matrix.Table3() {
		sum.Samplers = append(sum.Samplers, OverheadSampler{
			Name:        row.Name,
			WeightedESR: row.WeightedESR,
			AvgESR:      row.AvgESR,
		})
	}
	return sum, nil
}
