package obs

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("eac_requests_total", "requests", Labels{"outcome": "miss"})
	c.Inc()
	c.Add(4)
	c.Add(-10) // ignored: counters only go up
	if c.Value() != 5 {
		t.Fatalf("counter = %d", c.Value())
	}
	// Same (name, labels) returns the same instrument.
	if again := r.Counter("eac_requests_total", "requests", Labels{"outcome": "miss"}); again != c {
		t.Fatal("re-registration returned a different counter")
	}

	// A counter its owner holds is exposed by pointer: the scrape reads
	// the owner's storage.
	var owned Counter
	owned.Add(7)
	if got := r.RegisterCounter("eac_owned_total", "owned", nil, &owned); got != &owned {
		t.Fatal("RegisterCounter did not adopt the caller's counter")
	}

	called := false
	r.GaugeFunc("eac_age_seconds", "age", nil, func() float64 { called = true; return 3 })
	// A gauge set is re-collected on every scrape, so a series whose
	// subject is gone leaves the exposition.
	peers := []string{"a", "b"}
	r.GaugeSet("eac_peer_state", "per peer", func(emit func(Labels, float64)) {
		for i, p := range peers {
			emit(Labels{"peer": p}, float64(i))
		}
	})
	scrape := func() string {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	text := scrape()
	if !called {
		t.Fatal("gauge func not called at scrape")
	}
	for _, want := range []string{"eac_owned_total 7\n", "# TYPE eac_peer_state gauge\n", `eac_peer_state{peer="a"} 0` + "\n", `eac_peer_state{peer="b"} 1` + "\n"} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
	peers = peers[:1]
	if text = scrape(); strings.Contains(text, `peer="b"`) {
		t.Fatalf("departed series still scraped:\n%s", text)
	}
}

func TestKindClashPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("gauge under a counter name accepted")
		}
	}()
	r.GaugeFunc("x", "", nil, func() float64 { return 0 })
}

// TestPrometheusExpositionParses is the golden test: every line of the
// exposition must be a comment or a `name{labels} value` sample, families
// must carry HELP/TYPE headers, and histogram series must be cumulative
// and internally consistent.
func TestPrometheusExpositionParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("eac_requests_total", "requests by outcome", Labels{"outcome": "local-hit"}).Add(3)
	r.Counter("eac_requests_total", "requests by outcome", Labels{"outcome": "miss"}).Add(2)
	r.GaugeFunc("eac_resident_bytes", "bytes resident", nil, func() float64 { return 4096 })
	r.GaugeFunc("eac_expiration_age_seconds", "EA signal", nil, func() float64 { return 12.25 })
	h := r.Histogram("eac_stage_seconds", "stage latency", Labels{"stage": "local"}, []float64{0.001, 0.01, 0.1})
	h.Observe(0.0005)
	h.Observe(0.05)
	h.Observe(5) // +Inf

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()

	var (
		samples  int
		lastCum  = int64(-1)
		infSeen  bool
		sumSeen  bool
		cntSeen  bool
		helpSeen = map[string]bool{}
		typeSeen = map[string]bool{}
	)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if line == "" {
			t.Fatalf("blank line in exposition:\n%s", text)
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(line[len("# HELP "):], " ", 2)
			helpSeen[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(line[len("# TYPE "):], " ", 2)
			if len(parts) != 2 {
				t.Fatalf("bad TYPE line %q", line)
			}
			switch parts[1] {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("bad type %q in %q", parts[1], line)
			}
			typeSeen[parts[0]] = true
			continue
		}
		// Sample line: name[{labels}] value
		name, value, ok := splitSample(line)
		if !ok {
			t.Fatalf("unparseable sample line %q", line)
		}
		if _, err := strconv.ParseFloat(value, 64); err != nil && value != "+Inf" {
			t.Fatalf("bad value %q in %q: %v", value, line, err)
		}
		samples++
		if strings.HasPrefix(name, "eac_stage_seconds_bucket") {
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil {
				t.Fatalf("bucket count %q: %v", value, err)
			}
			if n < lastCum {
				t.Fatalf("bucket counts not cumulative: %d after %d", n, lastCum)
			}
			lastCum = n
			if strings.Contains(line, `le="+Inf"`) {
				infSeen = true
				if n != 3 {
					t.Fatalf("+Inf bucket = %d, want 3", n)
				}
			}
		}
		if strings.HasPrefix(name, "eac_stage_seconds_sum") {
			sumSeen = true
		}
		if strings.HasPrefix(name, "eac_stage_seconds_count") {
			cntSeen = true
			if value != "3" {
				t.Fatalf("histogram count = %s, want 3", value)
			}
		}
	}
	if samples == 0 {
		t.Fatal("no samples")
	}
	if !infSeen || !sumSeen || !cntSeen {
		t.Fatalf("histogram series incomplete (inf=%v sum=%v count=%v):\n%s", infSeen, sumSeen, cntSeen, text)
	}
	for _, fam := range []string{"eac_requests_total", "eac_resident_bytes", "eac_expiration_age_seconds", "eac_stage_seconds"} {
		if !helpSeen[fam] || !typeSeen[fam] {
			t.Fatalf("family %s missing HELP/TYPE header:\n%s", fam, text)
		}
	}
}

// splitSample parses `name{labels} value` / `name value`, validating brace
// and quote structure the way a Prometheus scraper would.
func splitSample(line string) (name, value string, ok bool) {
	sp := strings.LastIndexByte(line, ' ')
	if sp < 0 {
		return "", "", false
	}
	name, value = line[:sp], line[sp+1:]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		if !strings.HasSuffix(name, "}") {
			return "", "", false
		}
		inner := name[i+1 : len(name)-1]
		for _, pair := range splitLabelPairs(inner) {
			k, v, found := strings.Cut(pair, "=")
			if !found || k == "" || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
				return "", "", false
			}
		}
		name = name[:i]
	}
	if name == "" {
		return "", "", false
	}
	return name, value, true
}

func splitLabelPairs(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	out = append(out, s[start:])
	return out
}

// TestRegistryConcurrent registers, records, and scrapes from many
// goroutines under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := r.Counter("eac_concurrent_total", "", Labels{"worker": fmt.Sprint(i % 2)})
			h := r.Histogram("eac_concurrent_seconds", "", nil, nil)
			for j := 0; j < 2000; j++ {
				c.Inc()
				h.Observe(0.001)
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 50; j++ {
			var sb strings.Builder
			if err := r.WritePrometheus(&sb); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	a := r.Counter("eac_concurrent_total", "", Labels{"worker": "0"}).Value()
	b := r.Counter("eac_concurrent_total", "", Labels{"worker": "1"}).Value()
	if a+b != 8*2000 {
		t.Fatalf("counter total = %d, want %d", a+b, 8*2000)
	}
}
