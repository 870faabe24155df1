// Package obs is the fleet's one observability layer: a stdlib-only
// metrics core (the module vendors nothing, like internal/lint) that
// renders Prometheus text exposition format, plus the request-ID
// tracing the serving tiers thread through every hop.
//
// The design splits metrics into two halves:
//
//   - Push: Histogram, CounterVec, and HistogramVec are lock-free (or
//     near-lock-free) accumulators the hot paths write into — one
//     histogram observation per finished request, never per rejection
//     trial (the PR 5 lesson: two clock reads per trial measurably
//     slowed the sampler, so per-trial instrumentation is banned from
//     the draw loop).
//   - Pull: a MetricSet is assembled fresh at each scrape from the
//     stats snapshots the subsystems already keep (registry counters,
//     backend health flags, store generations), then rendered. No
//     global registry, no double bookkeeping, and counters stay
//     monotonic because the underlying atomics are.
//
// Metric and label names are part of one fleet-wide taxonomy (the
// Metric*/Label* constants): srjserver and srjrouter export the same
// shapes, so a single scrape config and dashboard watches every tier.
// Label cardinality is bounded by construction — algorithm, code,
// backend, reason — and the metriclabel analyzer (internal/lint)
// rejects label values fed from unbounded sources such as dataset
// names or request fields.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
)

// ContentType is the Prometheus text exposition content type served
// by GET /metrics.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// The fleet-wide metric taxonomy. srjserver and srjrouter both export
// srj_draw_duration_seconds and srj_requests_total, so one dashboard
// aggregates across tiers; the registry/store/router families appear
// on the tier that owns the state. Per-dataset detail deliberately
// does NOT appear here — dataset names are unbounded label input, and
// belong on the JSON surface (/v1/stats) where cardinality is free.
const (
	// MetricDrawDuration is a histogram of full draw-request latency,
	// labeled by algorithm on the server and unlabeled on the router
	// (which sees every algorithm through one proxy path).
	MetricDrawDuration = "srj_draw_duration_seconds"
	// MetricDrawSamples counts join samples delivered to clients.
	MetricDrawSamples = "srj_draw_samples_total"
	// MetricAcceptanceRate is the paper's load-bearing performance
	// signal: accepted samples over rejection trials, per algorithm,
	// across the resident engines.
	MetricAcceptanceRate = "srj_acceptance_rate"
	// MetricRequests counts API requests by outcome code.
	MetricRequests = "srj_requests_total"
	// MetricUptime is process uptime in seconds.
	MetricUptime = "srj_uptime_seconds"

	MetricRegistryHits          = "srj_registry_hits_total"
	MetricRegistryMisses        = "srj_registry_misses_total"
	MetricRegistryBuilds        = "srj_registry_builds_total"
	MetricRegistryEvictions     = "srj_registry_evictions_total"
	MetricRegistryEntries       = "srj_registry_entries"
	MetricRegistryBytes         = "srj_registry_bytes"
	MetricRegistryBudget        = "srj_registry_budget_bytes"
	MetricRegistryBuildDuration = "srj_registry_build_duration_seconds"

	MetricStores = "srj_stores"
	// MetricStoreGeneration is the highest current generation across
	// the process's dynamic stores (per-store detail carries dataset
	// names and lives in /v1/stats instead).
	MetricStoreGeneration = "srj_store_generation"
	// MetricStoreInPlaceOps counts operations absorbed by in-place
	// index maintenance, which is every applied operation: a store has
	// no other write path, so it grows with the update traffic.
	MetricStoreInPlaceOps = "srj_store_inplace_ops_total"

	// The durability family (internal/wal). All key-free aggregates
	// over the process's persisted stores, like the store family:
	// counters sum per-store counters (stores are never dropped from
	// the map, so the sums are monotonic); segments/bytes are gauges —
	// snapshot pruning legitimately shrinks them.
	MetricWALAppends   = "srj_wal_appends_total"
	MetricWALSyncs     = "srj_wal_syncs_total"
	MetricWALSnapshots = "srj_wal_snapshots_total"
	MetricWALSegments  = "srj_wal_segments"
	MetricWALBytes     = "srj_wal_bytes"
	// MetricStoreLastApplied is the highest last-applied update ID
	// across stores — the fleet-convergence signal: after a broadcast,
	// every shard's value agrees.
	MetricStoreLastApplied = "srj_store_last_applied_update_id"
	// MetricStorePersistErrors counts snapshot failures across the
	// process's stores — the alertable form of the /v1/stats
	// last_persist_err field (and the /healthz degradation signal): a
	// nonzero rate means a shard is serving from a log it can no
	// longer prune.
	MetricStorePersistErrors = "srj_store_persist_errors_total"

	MetricRouterBackendUp       = "srj_router_backend_up"
	MetricRouterBackendRequests = "srj_router_backend_requests_total"
	MetricRouterBackendFailures = "srj_router_backend_failures_total"
	MetricRouterFailovers       = "srj_router_failovers_total"
)

// The bounded label names of the taxonomy.
const (
	LabelAlgorithm = "algorithm" // validated against the known-algorithm list
	LabelCode      = "code"      // a server.Code* outcome code
	LabelBackend   = "backend"   // a backend address (admin-bounded membership)
	LabelReason    = "reason"    // eviction reason: "budget" or "manual"
)

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// L constructs a Label. Label values must come from bounded domains
// (the metriclabel analyzer enforces this at build time).
func L(name, value string) Label { return Label{Name: name, Value: value} }

// familyKind is the TYPE of a metric family.
type familyKind int

const (
	kindCounter familyKind = iota
	kindGauge
	kindHistogram
)

func (k familyKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// sample is one series within a family.
type sample struct {
	labels []Label
	value  float64           // counter/gauge
	snap   HistogramSnapshot // histogram
}

// family is one metric family: name, help, kind, series.
type family struct {
	name    string
	help    string
	kind    familyKind
	samples []sample
}

// MetricSet is one scrape's worth of metrics, assembled fresh per
// /metrics request from live stats snapshots and rendered with
// WriteTo. It is not safe for concurrent use — each scrape builds its
// own.
type MetricSet struct {
	families map[string]*family
}

// NewMetricSet returns an empty set.
func NewMetricSet() *MetricSet {
	return &MetricSet{families: make(map[string]*family)}
}

// Counter adds one counter series. Adding the same (name, labels)
// series twice sums the values, so contributors never produce the
// duplicate series the exposition format forbids.
func (m *MetricSet) Counter(name, help string, value float64, labels ...Label) {
	f := m.family(name, help, kindCounter)
	if s := f.find(labels); s != nil {
		s.value += value
		return
	}
	f.samples = append(f.samples, sample{labels: labels, value: value})
}

// Gauge adds one gauge series. A repeated (name, labels) series keeps
// the latest value.
func (m *MetricSet) Gauge(name, help string, value float64, labels ...Label) {
	f := m.family(name, help, kindGauge)
	if s := f.find(labels); s != nil {
		s.value = value
		return
	}
	f.samples = append(f.samples, sample{labels: labels, value: value})
}

// Histogram adds one histogram series. A repeated (name, labels)
// series merges the snapshots.
func (m *MetricSet) Histogram(name, help string, snap HistogramSnapshot, labels ...Label) {
	f := m.family(name, help, kindHistogram)
	if s := f.find(labels); s != nil {
		s.snap = s.snap.Merge(snap)
		return
	}
	f.samples = append(f.samples, sample{labels: labels, snap: snap})
}

// family returns (creating on first use) the named family. Name and
// label validity are programmer errors — names are compile-time
// constants — so violations panic rather than corrupt the exposition.
func (m *MetricSet) family(name, help string, kind familyKind) *family {
	if !validMetricName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	f, ok := m.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind}
		m.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %s redeclared as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// find returns the existing series with exactly these labels, if any.
func (f *family) find(labels []Label) *sample {
	for i := range f.samples {
		if labelsEqual(f.samples[i].labels, labels) {
			return &f.samples[i]
		}
	}
	return nil
}

func labelsEqual(a, b []Label) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// WriteTo renders the set in Prometheus text exposition format 0.0.4:
// families sorted by name, each preceded by its HELP and TYPE lines,
// histograms expanded into cumulative _bucket series plus _sum and
// _count. The output re-parses with ParseExposition (the round-trip
// test holds the two to each other).
func (m *MetricSet) WriteTo(w io.Writer) (int64, error) {
	names := make([]string, 0, len(m.families))
	for name := range m.families {
		names = append(names, name)
	}
	sort.Strings(names)
	cw := &countWriter{w: w}
	for _, name := range names {
		f := m.families[name]
		if len(f.samples) == 0 {
			continue
		}
		if f.help != "" {
			fmt.Fprintf(cw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		}
		fmt.Fprintf(cw, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.samples {
			if f.kind == kindHistogram {
				writeHistogram(cw, f.name, s)
				continue
			}
			fmt.Fprintf(cw, "%s%s %s\n", f.name, renderLabels(s.labels), formatValue(s.value))
		}
		if cw.err != nil {
			return cw.n, cw.err
		}
	}
	return cw.n, cw.err
}

// writeHistogram expands one histogram series: cumulative buckets
// (the le label appended after the series' own labels), then sum and
// count.
func writeHistogram(w io.Writer, name string, s sample) {
	cum := uint64(0)
	for i, bound := range s.snap.Bounds {
		cum += s.snap.Counts[i]
		le := append(append([]Label(nil), s.labels...), Label{Name: "le", Value: formatValue(bound)})
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(le), cum)
	}
	inf := append(append([]Label(nil), s.labels...), Label{Name: "le", Value: "+Inf"})
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, renderLabels(inf), s.snap.Count)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, renderLabels(s.labels), formatValue(s.snap.Sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, renderLabels(s.labels), s.snap.Count)
}

// renderLabels renders {a="x",b="y"}, or "" for no labels.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if !validLabelName(l.Name) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Name))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value the way Prometheus expects:
// shortest round-trip decimal, with +Inf/-Inf/NaN spelled out.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabelValue escapes backslash, double-quote, and newline — the
// three characters the text format requires escaping in label values.
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes backslash and newline in HELP text.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// countWriter tracks bytes written and the first error.
type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// Handler serves GET /metrics: collect assembles a fresh MetricSet
// per scrape from live stats snapshots, and the rendered exposition
// is written with the 0.0.4 content type.
func Handler(collect func(m *MetricSet)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		m := NewMetricSet()
		collect(m)
		var b strings.Builder
		if _, err := m.WriteTo(&b); err != nil {
			http.Error(w, "rendering metrics: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", ContentType)
		io.WriteString(w, b.String())
	})
}
