// Package export is the serving layer over internal/obs: a Prometheus
// text-format encoder for every instrument kind and an embedded HTTP
// telemetry server exposing /metrics, /snapshot, /healthz, and
// /debug/pprof/*. It exists as a sibling of obs (rather than inside it)
// so the zero-dependency registry stays importable from the hottest
// paths without dragging in net/http.
package export

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"literace/internal/hb"
	"literace/internal/obs"
	"literace/internal/obs/coverprof"
)

// namePrefix namespaces every exported metric, per Prometheus convention.
const namePrefix = "literace_"

// promName mangles a dotted registry name into a Prometheus metric name:
// "core.esr.shadow.TL-Ad" -> "literace_core_esr_shadow_TL_Ad".
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(namePrefix) + len(name))
	b.WriteString(namePrefix)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promLabel escapes a label value per the text-format rules.
func promLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, "\n", `\n`, `"`, `\"`)
	return r.Replace(v)
}

// PromName exposes the metric-name mangling for sibling packages that
// append their own labeled families after WriteProm (the collector's
// per-producer fleet export).
func PromName(name string) string { return promName(name) }

// PromLabel exposes the label-value escaping for the same callers.
func PromLabel(v string) string { return promLabel(v) }

// fmtFloat renders a float the way Prometheus expects (Go 'g' format
// round-trips and the scraper accepts scientific notation).
func fmtFloat(v float64) string { return fmt.Sprintf("%g", v) }

// WriteProm encodes a snapshot in the Prometheus text exposition format
// (version 0.0.4). Every instrument kind maps onto a native Prometheus
// type:
//
//   - counters -> counter
//   - gauges -> gauge
//   - histograms -> histogram with cumulative less-or-equal buckets
//     (the registry's power-of-two bounds are exclusive upper bounds, so
//     bound 2^i becomes le="2^i-1"), plus _min/_max gauges carrying the
//     exact observed extrema
//   - counter vectors -> one counter series per non-zero cell, labeled
//     {cell="i"}
//   - phase spans -> literace_phase_{runs_total,duration_seconds_total,
//     items_total} labeled {phase="name"}, aggregated over repeated runs
//     of the same phase
//   - low-coverage gauges (coverprof.low_coverage.<func>) -> one labeled
//     family literace_coverprof_low_coverage_esr{func="<func>"} instead
//     of a mangled gauge per function
//   - per-pair near-miss counters (hb.near_miss.<A><-><B>) -> one
//     labeled family literace_hb_near_miss{pair="<A><-><B>"}
//
// Output is deterministic: families and series sort by name, so equal
// snapshots produce identical bytes (the golden test relies on this).
func WriteProm(w io.Writer, s *obs.Snapshot) error {
	var b strings.Builder

	var nearMiss []string
	for _, name := range sortedKeys(s.Counters) {
		if strings.HasPrefix(name, hb.NearMissCounterPrefix) {
			nearMiss = append(nearMiss, name)
			continue
		}
		n := promName(name)
		fmt.Fprintf(&b, "# HELP %s LiteRace counter %s\n# TYPE %s counter\n%s %d\n",
			n, name, n, n, s.Counters[name])
	}
	if len(nearMiss) > 0 {
		fam := namePrefix + "hb_near_miss"
		fmt.Fprintf(&b, "# HELP %s ordered conflicting access pairs within the near-miss margin\n# TYPE %s counter\n", fam, fam)
		for _, name := range nearMiss {
			pair := strings.TrimPrefix(name, hb.NearMissCounterPrefix)
			fmt.Fprintf(&b, "%s{pair=\"%s\"} %d\n", fam, promLabel(pair), s.Counters[name])
		}
	}
	var lowCov []string
	for _, name := range sortedKeys(s.Gauges) {
		if strings.HasPrefix(name, coverprof.LowCoverageGaugePrefix) {
			lowCov = append(lowCov, name)
			continue
		}
		n := promName(name)
		fmt.Fprintf(&b, "# HELP %s LiteRace gauge %s\n# TYPE %s gauge\n%s %s\n",
			n, name, n, n, fmtFloat(s.Gauges[name]))
	}
	if len(lowCov) > 0 {
		fam := namePrefix + "coverprof_low_coverage_esr"
		fmt.Fprintf(&b, "# HELP %s per-function memory ESR of flagged low-coverage functions\n# TYPE %s gauge\n", fam, fam)
		for _, name := range lowCov {
			fn := strings.TrimPrefix(name, coverprof.LowCoverageGaugePrefix)
			fmt.Fprintf(&b, "%s{func=\"%s\"} %s\n", fam, promLabel(fn), fmtFloat(s.Gauges[name]))
		}
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		n := promName(name)
		fmt.Fprintf(&b, "# HELP %s LiteRace histogram %s\n# TYPE %s histogram\n", n, name, n)
		cum := uint64(0)
		for _, bkt := range h.Buckets {
			cum += bkt[1]
			// Registry bounds are exclusive (v < bound); le is inclusive.
			le := "0"
			if bkt[0] > 0 {
				le = fmt.Sprintf("%d", bkt[0]-1)
			}
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", n, le, cum)
		}
		fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", n, h.Count)
		fmt.Fprintf(&b, "%s_sum %d\n%s_count %d\n", n, h.Sum, n, h.Count)
		if h.Count > 0 {
			fmt.Fprintf(&b, "# TYPE %s_min gauge\n%s_min %d\n", n, n, h.Min)
			fmt.Fprintf(&b, "# TYPE %s_max gauge\n%s_max %d\n", n, n, h.Max)
		}
	}
	for _, name := range sortedKeys(s.Vectors) {
		v := s.Vectors[name]
		n := promName(name)
		fmt.Fprintf(&b, "# HELP %s LiteRace counter vector %s (zero cells omitted)\n# TYPE %s counter\n",
			n, name, n)
		for i, cell := range v {
			if cell == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s{cell=\"%d\"} %d\n", n, i, cell)
		}
	}
	if len(s.Phases) > 0 {
		writePromPhases(&b, s.Phases)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writePromPhases aggregates the phase spans by name (a phase can run many
// times, e.g. one span per benchmark seed) into three labeled families.
func writePromPhases(b *strings.Builder, phases []obs.PhaseSnapshot) {
	type agg struct {
		runs  uint64
		durNs int64
		items uint64
	}
	byName := map[string]*agg{}
	var order []string
	for _, p := range phases {
		a := byName[p.Name]
		if a == nil {
			a = &agg{}
			byName[p.Name] = a
			order = append(order, p.Name)
		}
		a.runs++
		a.durNs += p.DurNanos
		a.items += p.Items
	}
	sort.Strings(order)

	fmt.Fprintf(b, "# HELP %sphase_runs_total completed pipeline phase spans\n# TYPE %sphase_runs_total counter\n",
		namePrefix, namePrefix)
	for _, name := range order {
		fmt.Fprintf(b, "%sphase_runs_total{phase=\"%s\"} %d\n", namePrefix, promLabel(name), byName[name].runs)
	}
	fmt.Fprintf(b, "# HELP %sphase_duration_seconds_total time spent in each pipeline phase\n# TYPE %sphase_duration_seconds_total counter\n",
		namePrefix, namePrefix)
	for _, name := range order {
		fmt.Fprintf(b, "%sphase_duration_seconds_total{phase=\"%s\"} %s\n",
			namePrefix, promLabel(name), fmtFloat(float64(byName[name].durNs)/1e9))
	}
	fmt.Fprintf(b, "# HELP %sphase_items_total items processed by each pipeline phase\n# TYPE %sphase_items_total counter\n",
		namePrefix, namePrefix)
	for _, name := range order {
		fmt.Fprintf(b, "%sphase_items_total{phase=\"%s\"} %d\n", namePrefix, promLabel(name), byName[name].items)
	}
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
