package trace

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestReadSquid(t *testing.T) {
	in := strings.Join([]string{
		"# comment",
		"",
		"784900000.123    95 10.0.0.7 TCP_MISS/200 2314 GET http://cs-www.bu.edu/ - DIRECT/128.197.12.3 text/html",
		"784900001.500    12 10.0.0.7 TCP_HIT/200 1804 GET http://cs-www.bu.edu/logo.gif - NONE/- image/gif",
		"784900002.000   140 10.0.0.9 TCP_MISS/304 231 GET http://cs-www.bu.edu/ - DIRECT/128.197.12.3 text/html",
		"784900003.000   900 10.0.0.9 TCP_MISS/200 8000 CONNECT mail.example.com:443 - DIRECT/1.2.3.4 -",
		"784900004.000    10 10.0.0.9 TCP_MISS/404 300 GET http://gone.example.edu/x - DIRECT/5.6.7.8 text/html",
		"784900005.000    10 10.0.0.9 TCP_MISS/200 300 GET not-a-url - DIRECT/5.6.7.8 text/html",
		"short line",
		"notatime 1 c TCP_HIT/200 10 GET http://x/ - NONE/- -",
		"784900006.000 1 c TCP_HIT/200 -5 GET http://x/ - NONE/- -",
		"784900007.000 1 c TCPHIT200 10 GET http://x/ - NONE/- -",
	}, "\n")

	records, skipped, err := ReadSquid(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 3 {
		t.Fatalf("records = %d, want 3 (two 200 GETs + one 304 GET)", len(records))
	}
	// CONNECT, 404, bad URL, short line, bad timestamp, negative size,
	// malformed code/status.
	if skipped != 7 {
		t.Fatalf("skipped = %d, want 7", skipped)
	}
	first := records[0]
	if first.Client.String() != "10.0.0.7" || first.URL != "http://cs-www.bu.edu/" || first.Size != 2314 {
		t.Fatalf("record[0] = %+v", first)
	}
	if first.Time().UnixMilli() != 784900000123 {
		t.Fatalf("timestamp = %v", first.Time())
	}
	if !Sorted(records) {
		t.Fatal("squid records out of order")
	}
}

func TestReadSquidEmpty(t *testing.T) {
	records, skipped, err := ReadSquid(strings.NewReader(""))
	if err != nil || len(records) != 0 || skipped != 0 {
		t.Fatalf("empty log: %v, %d, %d", err, len(records), skipped)
	}
}

func TestWriteSquidRoundTrip(t *testing.T) {
	records := []Record{
		{UnixNano: ts(784900000, 123000000).UnixNano(), Client: MakeClient("10.0.0.7"), URL: "http://cs-www.bu.edu/", Size: 2314},
		{UnixNano: ts(784900002, 0).UnixNano(), Client: MakeClient("10.0.0.9"), URL: "http://cs-www.bu.edu/logo.gif", Size: 1804},
	}
	var buf bytes.Buffer
	if err := WriteSquid(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadSquid(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("own output skipped %d lines", skipped)
	}
	if !reflect.DeepEqual(got, records) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, records)
	}
}

func TestWriteSquidDrivesSimulatorInput(t *testing.T) {
	cfg := BULike().Scaled(0.001)
	cfg.ZeroSizeFraction = 0
	records, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteSquid(&buf, records); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := ReadSquid(&buf)
	if err != nil || skipped != 0 {
		t.Fatalf("squid round trip: %v, %d skipped", err, skipped)
	}
	if len(got) != len(records) {
		t.Fatalf("records = %d, want %d", len(got), len(records))
	}
}

func TestComputePopularity(t *testing.T) {
	var records []Record
	// doc0 requested 100 times, doc1 50, doc2 25, ..., plus singletons.
	for i, n := range []int{100, 50, 25, 12, 6} {
		for j := 0; j < n; j++ {
			records = append(records, Record{URL: docURL(i), Size: 1})
		}
	}
	for i := 0; i < 20; i++ {
		records = append(records, Record{URL: docURL(100 + i), Size: 1})
	}
	p := ComputePopularity(records)
	if p.Docs != 25 {
		t.Fatalf("Docs = %d", p.Docs)
	}
	if p.SingleUse != 0.8 {
		t.Fatalf("SingleUse = %v, want 0.8", p.SingleUse)
	}
	total := float64(100 + 50 + 25 + 12 + 6 + 20)
	if got := p.TopShare[0]; got != 100/total {
		t.Fatalf("top1 share = %v", got)
	}
	if got := p.TopShare[1]; got != (100+50+25+12+6+5)/total {
		t.Fatalf("top10 share = %v", got)
	}
	// TopKs beyond the catalogue saturate at 1.
	if p.TopShare[2] != 1 || p.TopShare[3] != 1 {
		t.Fatalf("saturated shares = %v", p.TopShare)
	}
	if p.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestComputePopularityEmpty(t *testing.T) {
	p := ComputePopularity(nil)
	if p.Docs != 0 || p.Alpha != 0 {
		t.Fatalf("empty popularity = %+v", p)
	}
}

func TestPopularityAlphaRecoversGeneratorSkew(t *testing.T) {
	cfg := BULike().Scaled(0.05)
	cfg.HotWeight = 0      // isolate the Zipf body
	cfg.SelfAffinity = 0   // no re-reference distortion
	cfg.CohortFraction = 0 // no shared streams
	records, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := ComputePopularity(records)
	if p.Alpha < cfg.ZipfAlpha-0.25 || p.Alpha > cfg.ZipfAlpha+0.25 {
		t.Fatalf("fitted alpha %.2f far from configured %.2f", p.Alpha, cfg.ZipfAlpha)
	}
}
