// Package obs is the runtime telemetry layer of the live node: a typed
// counter/gauge/histogram registry with Prometheus text exposition, HDR-style
// log-bucketed latency histograms, per-request trace records copied by value
// into a bounded ring, and an opt-in admin HTTP surface (/metrics, /healthz,
// /debug/trace, pprof). It is stdlib-only and designed so that
// a node built without telemetry pays nothing: every recording entry point
// is nil-safe and the hot-path cost with telemetry on is a handful of
// atomic adds per request.
//
// The registry is the measurement substrate the paper's argument needs at
// runtime — cumulative hit and byte-hit rates, the per-cache expiration age,
// the EA placement-decision mix, and the latency split behind equation 6 —
// exposed from a running group instead of recompiled experiments.
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

// Labels attach dimension values to an instrument, e.g.
// {"outcome": "local-hit"}. Instruments with the same name but different
// label sets form one exposition family and must share a value type.
type Labels map[string]string

// canonical renders labels in sorted {k="v",...} form, the identity key of
// an instrument within its family ("" for no labels).
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
		fmt.Fprintf(&b, "%s=%q", k, escapeLabelValue(l[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the Prometheus text-format escapes; %q above
// already escapes quotes and backslashes, so only raw newlines remain.
func escapeLabelValue(v string) string {
	return strings.ReplaceAll(v, "\n", `\n`)
}

// Counter is a monotonically increasing value. The zero value is usable but
// counters normally come from Registry.Counter so they are scraped.
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

// instrumentKind discriminates a family's value type for exposition.
type instrumentKind int

const (
	kindCounter instrumentKind = iota + 1
	kindGaugeFunc
	kindGaugeSet
	kindHistogram
)

func (k instrumentKind) promType() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGaugeFunc, kindGaugeSet:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// family groups every instrument sharing one metric name.
type family struct {
	name string
	help string
	kind instrumentKind

	// instruments by canonical label string. Values are *Counter,
	// func() float64, or *Histogram depending on kind.
	instruments map[string]any
	// order is the label-registration order of the series.
	order []string
	// collect produces a kindGaugeSet family's series at scrape time.
	collect func(emit func(Labels, float64))
}

// Registry holds named instruments and renders them in Prometheus text
// exposition format. All methods are safe for concurrent use; recording on
// the returned instruments is lock-free.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	names    []string // registration order for stable exposition
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// lookup returns the family for name, creating it with kind/help on first
// use. It panics on a kind clash: two instruments sharing a name but not a
// type is a programming error worth failing loudly on.
func (r *Registry) lookup(name, help string, kind instrumentKind) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, instruments: make(map[string]any)}
		r.families[name] = f
		r.names = append(r.names, name)
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, f.kind.promType(), kind.promType()))
	}
	return f
}

// add registers inst under labels, returning the existing instrument when
// the same (name, labels) pair was registered before.
func (f *family) add(labels Labels, inst any, replace bool) any {
	key := labels.canonical()
	if cur, ok := f.instruments[key]; ok {
		if !replace {
			return cur
		}
		f.instruments[key] = inst
		return inst
	}
	f.instruments[key] = inst
	f.order = append(f.order, key)
	return inst
}

// Counter returns the counter for (name, labels), creating it on first use.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	return r.RegisterCounter(name, help, labels, &Counter{})
}

// RegisterCounter exposes c, a counter its owner holds and increments
// whether or not anything scrapes it, as (name, labels). When the pair is
// already registered the existing counter is returned and c is ignored.
func (r *Registry) RegisterCounter(name, help string, labels Labels, c *Counter) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindCounter)
	return f.add(labels, c, false).(*Counter)
}

// GaugeFunc registers fn as the value source for (name, labels); fn is
// called at scrape time, so dynamic values (expiration age, breaker states)
// are always current. Re-registering the same (name, labels) replaces fn.
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindGaugeFunc)
	f.add(labels, fn, true)
}

// GaugeSet registers a gauge family whose series are produced at scrape
// time: every exposition calls collect, which emits one (labels, value)
// pair per series. A family keyed by a changing population — the current
// member table — therefore never serves a series for something that has
// gone. Re-registering the name replaces collect.
func (r *Registry) GaugeSet(name, help string, collect func(emit func(Labels, float64))) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lookup(name, help, kindGaugeSet).collect = collect
}

// Histogram returns the log-bucketed histogram for (name, labels), creating
// it with bounds on first use (nil bounds selects DefaultLatencyBuckets).
func (r *Registry) Histogram(name, help string, labels Labels, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.lookup(name, help, kindHistogram)
	return f.add(labels, NewHistogram(bounds), false).(*Histogram)
}

// WritePrometheus renders every registered instrument in the Prometheus
// text exposition format (version 0.0.4), families in registration order
// and series in label-registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, name := range r.names {
		f := r.families[name]
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.help, name, f.kind.promType()); err != nil {
			return err
		}
		for _, key := range f.order {
			if err := writeSeries(w, f, key); err != nil {
				return err
			}
		}
		if f.collect != nil {
			var err error
			f.collect(func(l Labels, v float64) {
				if err == nil {
					_, err = fmt.Fprintf(w, "%s%s %s\n", name, l.canonical(), formatFloat(v))
				}
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

func writeSeries(w io.Writer, f *family, key string) error {
	switch inst := f.instruments[key].(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", f.name, key, inst.Value())
		return err
	case func() float64:
		_, err := fmt.Fprintf(w, "%s%s %s\n", f.name, key, formatFloat(inst()))
		return err
	case *Histogram:
		return inst.writePrometheus(w, f.name, key)
	default:
		return fmt.Errorf("obs: unknown instrument type %T", inst)
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
