package literace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"

	"literace/internal/forensics"
	"literace/internal/hb"
	"literace/internal/obs"
	"literace/internal/trace"
)

// RacesSchema versions the machine-readable race list emitted by
// Report.MarshalRaces (`detect -json`, `watch -json`, and the /races
// telemetry endpoint).
const RacesSchema = "literace.races/v1"

// RaceList is the literace.races/v1 document. Field order is part of
// the contract: encoding/json emits struct fields in declaration order,
// so the output is byte-stable for a given report. Final distinguishes
// the authoritative end-of-run list from a live mid-run view (the
// /races telemetry endpoint while a watch or run is still in flight).
type RaceList struct {
	Schema          string `json:"schema"`
	Module          string `json:"module,omitempty"`
	Sampler         string `json:"sampler,omitempty"`
	Seed            int64  `json:"seed"`
	Final           bool   `json:"final"`
	Degraded        bool   `json:"degraded,omitempty"`
	MemOpsAnalyzed  uint64 `json:"mem_ops_analyzed"`
	SyncOpsAnalyzed uint64 `json:"sync_ops_analyzed"`
	Count           int    `json:"count"`
	Races           []Race `json:"races"`
}

// MarshalStable encodes the list canonically: schema tag defaulted,
// nil races normalized to an empty array, two-space indentation,
// trailing newline.
func (l *RaceList) MarshalStable() ([]byte, error) {
	if l.Schema == "" {
		l.Schema = RacesSchema
	}
	if l.Races == nil {
		l.Races = []Race{}
	}
	l.Count = len(l.Races)
	data, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// MarshalRaces encodes the report's race list as the canonical
// literace.races/v1 JSON document (stable field order, trailing newline):
// the machine-readable twin of Report.String for fleet tooling, so
// nothing has to re-parse the text table.
func (r *Report) MarshalRaces() ([]byte, error) {
	doc := RaceList{
		Module:          r.Meta.Module,
		Sampler:         r.Meta.Primary,
		Seed:            r.Meta.Seed,
		Final:           true,
		Degraded:        r.Degraded,
		MemOpsAnalyzed:  r.MemOpsAnalyzed,
		SyncOpsAnalyzed: r.SyncOpsAnalyzed,
		Races:           r.Races,
	}
	return doc.MarshalStable()
}

// ForensicConfig configures Explain and ExplainLog.
type ForensicConfig struct {
	// Window is the witness half-window per thread (non-scheduler events
	// kept on each side of a racing access); 0 means
	// forensics.DefaultWindow, negative disables witness reconstruction.
	Window int
	// MaxOccurrences bounds the dynamic occurrences detailed per static
	// race; 0 means forensics.DefaultMaxOccurrences.
	MaxOccurrences int
	// NearMissMargin is the near-miss threshold in clock ticks; 0 means
	// hb.DefaultNearMissMargin, negative disables near-miss analytics.
	NearMissMargin int
	// Scale is the workload scale echoed into the report header.
	Scale int
}

func (fc ForensicConfig) margin() int {
	if fc.NearMissMargin < 0 {
		return 0
	}
	if fc.NearMissMargin == 0 {
		return hb.DefaultNearMissMargin
	}
	return fc.NearMissMargin
}

// Explain runs the instrumented program under cfg, then performs an
// evidence-enabled batch detection pass over the in-memory log and
// assembles the forensic report: per-race vector-clock evidence, witness
// windows, burst attribution (coverage profiling is forced on so the
// sampling bursts that captured each access can be named), and near-miss
// analytics. The report — text, HTML, and JSON renderings alike — is
// byte-stable per (module, sampler, scale, seed).
func (p *Program) Explain(cfg Config, fc ForensicConfig) (*forensics.Report, *RunResult, error) {
	if cfg.LogTo != nil {
		return nil, nil, fmt.Errorf("literace: Explain manages the log itself; leave LogTo nil")
	}
	cfg.Coverage = true
	res, err := p.Run(cfg)
	if err != nil {
		return nil, nil, err
	}
	decoded, err := trace.ReadAll(bytes.NewReader(res.log.Bytes()))
	if err != nil {
		return nil, nil, err
	}
	hres, err := hb.Detect(decoded, hb.Options{
		SamplerBit: hb.AllEvents, Obs: cfg.Obs,
		Evidence: true, NearMissMargin: fc.margin(),
	})
	if err != nil {
		return nil, nil, err
	}
	rep, err := forensics.Build(decoded, hres, forensics.Options{
		Resolve:        p.FuncName,
		Window:         fc.Window,
		MaxOccurrences: fc.MaxOccurrences,
		Margin:         fc.margin(),
		Cov:            res.cov,
		Scale:          fc.Scale,
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, res, nil
}

// ExplainLog builds the forensic report from an encoded log: the log is
// salvage-decoded (damage tolerated and accounted) and replayed through
// an evidence-enabled degraded detection pass. Burst attribution is not
// available on this path — the log records what was sampled, not the
// runtime's burst windows. resolve maps original function indices to
// names (nil for raw indices); reg may be nil.
func ExplainLog(log io.Reader, resolve func(int32) string, fc ForensicConfig, reg *obs.Registry) (*forensics.Report, *trace.SalvageReport, error) {
	decoded, srep, err := trace.SalvageObs(log, reg)
	if err != nil {
		return nil, nil, err
	}
	hres, deg, err := hb.DetectDegraded(decoded, hb.Options{
		SamplerBit: hb.AllEvents, Obs: reg,
		Evidence: true, NearMissMargin: fc.margin(),
	})
	if err != nil {
		return nil, nil, err
	}
	rep, err := forensics.Build(decoded, hres, forensics.Options{
		Resolve:        resolve,
		Window:         fc.Window,
		MaxOccurrences: fc.MaxOccurrences,
		Margin:         fc.margin(),
		Scale:          fc.Scale,
		Degraded:       deg.Degraded() || srep.Lossy(),
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, srep, nil
}
