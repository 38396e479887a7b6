package export

import (
	"regexp"
	"strings"
	"testing"

	"literace/internal/obs"
)

// streamSnapshot populates a registry the way a finished stream.Pipeline
// does and returns its snapshot.
func streamSnapshot() *obs.Snapshot {
	reg := obs.New()
	reg.Counter("stream.bytes").Add(1 << 20)
	reg.Counter("stream.events").Add(50000)
	reg.Gauge("stream.backlog_depth").Set(0)
	reg.Gauge("stream.reorder_stalls").Set(12)
	reg.Gauge("stream.events_per_sec").Set(1.25e6)
	return reg.Snapshot()
}

// promLine matches the three legal line shapes of the text exposition
// format 0.0.4: HELP comments, TYPE comments, and samples (optionally
// labeled).
var promLine = regexp.MustCompile(`^(# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+` +
	`|# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram|summary|untyped)` +
	`|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="[^"]*"(,[a-zA-Z_][a-zA-Z0-9_]*="[^"]*")*\})? [^ ]+( [0-9]+)?)$`)

// TestWritePromStreamFamilies checks that the stream pipeline's metric
// families render under the literace_stream_* namespace and that every
// emitted line is valid Prometheus text format.
func TestWritePromStreamFamilies(t *testing.T) {
	var b strings.Builder
	if err := WriteProm(&b, streamSnapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	for _, flat := range []string{
		"literace_stream_bytes 1048576",
		"literace_stream_events 50000",
		"literace_stream_backlog_depth 0",
		"literace_stream_reorder_stalls 12",
		"literace_stream_events_per_sec 1.25e+06",
	} {
		if !strings.Contains(out, flat+"\n") {
			t.Errorf("missing sample %q in:\n%s", flat, out)
		}
	}

	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("line not valid prometheus 0.0.4 text format: %q", line)
		}
	}
}
