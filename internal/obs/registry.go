// Package obs is the runtime telemetry layer of the live node: a metric
// table rendered in the Prometheus text exposition format, HDR-style
// log-bucketed latency histograms, per-request trace records copied by value
// into a bounded ring, and an opt-in admin HTTP surface (/metrics, /healthz,
// /debug/trace, pprof). It is stdlib-only and designed so that
// a node built without telemetry pays nothing: every recording entry point
// is nil-safe and the hot-path cost with telemetry on is a handful of
// atomic adds per request.
//
// A Registry is a list of Families, each a name, a help text and its series
// in order; every Series points at the one source its owner records into —
// a *Counter, a gauge function or a *Histogram — and /metrics reads those
// sources as they are at the scrape. The node's table is the measurement
// substrate the paper's argument needs at runtime — cumulative hit and
// byte-hit rates, the per-cache expiration age, the EA placement-decision
// mix, and the latency split behind equation 6 — exposed from a running
// group instead of recompiled experiments.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Labels attach dimension values to a series, e.g. {"outcome": "local-hit"}.
type Labels map[string]string

// labelEscaper applies the three escapes the text format defines for a
// label value: backslash, double quote and line feed.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// canonical renders labels in sorted {k="v",...} form ("" for no labels).
func (l Labels) canonical() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(l[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter is a monotonically increasing value. Its owner holds it and
// counts into it whether or not anything scrapes it; a Series exposes it
// by pointer. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Series is one exposed time series: its labels and exactly one source.
type Series struct {
	Labels    Labels
	Counter   *Counter
	Gauge     func() float64 // read at scrape time
	Histogram *Histogram
}

// Family is one metric name: its help text and its series in exposition
// order. Collect, when set, emits further gauge series at scrape time, so
// a family keyed by a changing population — the current member table —
// never serves a series for something that has gone.
type Family struct {
	Name, Help string
	Series     []Series
	Collect    func(emit func(Labels, float64))
}

// promType is the family's exposition type, taken from its first series'
// source; a family of scrape-time series only is a gauge.
func (f *Family) promType() string {
	switch {
	case len(f.Series) == 0 || f.Series[0].Gauge != nil:
		return "gauge"
	case f.Series[0].Counter != nil:
		return "counter"
	default:
		return "histogram"
	}
}

// Registry is the ordered metric table /metrics renders; the zero value
// is empty. Register and WritePrometheus are safe for concurrent use;
// recording on the sources never touches the registry.
type Registry struct {
	mu       sync.RWMutex
	families []Family
}

// Register appends fs to the table, in order.
func (r *Registry) Register(fs ...Family) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.families = append(r.families, fs...)
}

// WritePrometheus renders the table in the Prometheus text exposition
// format (version 0.0.4): families in registration order, each family's
// series in table order, then what its Collect emits.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for i := range r.families {
		f := &r.families[i]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.Name, f.Help, f.Name, f.promType()); err != nil {
			return err
		}
		for _, s := range f.Series {
			if err := writeSeries(w, f.Name, s); err != nil {
				return err
			}
		}
		if f.Collect != nil {
			var err error
			f.Collect(func(l Labels, v float64) {
				if err == nil {
					_, err = fmt.Fprintf(w, "%s%s %s\n", f.Name, l.canonical(), formatFloat(v))
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, name string, s Series) error {
	key := s.Labels.canonical()
	switch {
	case s.Counter != nil:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, key, s.Counter.Value())
		return err
	case s.Gauge != nil:
		_, err := fmt.Fprintf(w, "%s%s %s\n", name, key, formatFloat(s.Gauge()))
		return err
	default:
		return s.Histogram.writePrometheus(w, name, key)
	}
}

// formatFloat renders v the way Prometheus expects: shortest round-trip
// representation, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	default:
		return fmt.Sprintf("%g", v)
	}
}
