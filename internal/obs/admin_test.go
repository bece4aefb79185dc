package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func startAdmin(t *testing.T, tel *Telemetry) *Admin {
	t.Helper()
	a, err := ServeAdmin(AdminConfig{
		Addr:      "127.0.0.1:0",
		Telemetry: tel,
		Info:      map[string]string{"node": "t"},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	return a
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

func TestAdminEndpoints(t *testing.T) {
	tel := New("t", 8)
	var misses Counter
	misses.Add(7)
	tel.Registry.Register(Family{Name: "eac_requests_total", Help: "reqs", Series: []Series{{Labels: Labels{"outcome": "miss"}, Counter: &misses}}})
	tr := tel.StartTrace("t", "http://w/doc")
	tr.CloseSpan(tr.OpenSpan(StageLocalLookup, time.Now()), 0)
	tr.Outcome = "miss"
	tel.Finish(tr)

	a := startAdmin(t, tel)
	base := "http://" + a.Addr()

	code, body := get(t, base+"/metrics")
	if code != 200 || !strings.Contains(body, `eac_requests_total{outcome="miss"} 7`) {
		t.Fatalf("/metrics = %d\n%s", code, body)
	}

	code, body = get(t, base+"/healthz")
	if code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, body = get(t, base+"/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace = %d", code)
	}
	var traces []Trace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("trace dump: %v\n%s", err, body)
	}
	if len(traces) != 1 || traces[0].URL != "http://w/doc" {
		t.Fatalf("traces = %+v", traces)
	}

	// Counters and current state have one surface each; expvar is not one.
	if code, _ = get(t, base+"/debug/vars"); code != 404 {
		t.Fatalf("/debug/vars = %d, want 404 (not routed)", code)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != 200 || !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ = %d", code)
	}
	code, _ = get(t, base+"/debug/pprof/heap?debug=1")
	if code != 200 {
		t.Fatalf("heap profile = %d", code)
	}

	code, body = get(t, base+"/")
	if code != 200 || !strings.Contains(body, `"node": "t"`) {
		t.Fatalf("/ = %d\n%s", code, body)
	}
	code, _ = get(t, base+"/nope")
	if code != 404 {
		t.Fatalf("unknown path = %d, want 404", code)
	}
}

func TestAdminRequiresTelemetry(t *testing.T) {
	if _, err := ServeAdmin(AdminConfig{Addr: "127.0.0.1:0"}); err == nil {
		t.Fatal("nil telemetry accepted")
	}
}
