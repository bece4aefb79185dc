package obs_test

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/netnode"
	"eacache/internal/obs"
)

// TestDebugDumpsGolden pins the bytes /debug/trace and /debug/placement
// serve for a scripted exchange on a live two-node group: origin misses,
// local hits, a remote hit whose served leg lands in the responder's
// ring, and a fifth record on a four-slot ring, which overwrites the
// first. Trace IDs come from a fixed seed; wall-clock times, durations
// and ports are normalised. The goldens were captured before trace
// records were held by value in the ring, so they hold the read side to
// what it was.
func TestDebugDumpsGolden(t *testing.T) {
	obs.SetTraceSeed(0x5eed)
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = origin.Close() })
	start := func(id string, ring int) (*netnode.Node, *obs.Telemetry) {
		tel := obs.New(id, ring)
		tel.SetTraceSampling(1)
		store, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: 1 << 20, ExpirationHorizon: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		n, err := netnode.New(netnode.Config{
			ID: id, ICPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", Store: store,
			Scheme: core.EA{}, OriginAddr: origin.Addr(), ICPTimeout: 2 * time.Second, Obs: tel,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n, tel
	}
	a, telA := start("a", 8)
	b, telB := start("b", 4)
	a.SetPeers([]netnode.Peer{{ICP: b.ICPAddr(), HTTP: b.HTTPAddr()}})
	b.SetPeers([]netnode.Peer{{ICP: a.ICPAddr(), HTTP: a.HTTPAddr()}})

	const u1, u2, u3 = "http://g.example.edu/1", "http://g.example.edu/2", "http://g.example.edu/3"
	for _, step := range []struct {
		n   *netnode.Node
		url string
	}{{b, u1}, {b, u1}, {a, u2}, {b, u2}, {b, u3}, {b, u3}} {
		if _, err := step.n.Request(step.url, 2048); err != nil {
			t.Fatal(err)
		}
	}
	// a publishes the served leg of b's remote hit after writing the
	// response b's Request returned on, so wait for it: a's ring then holds
	// its own origin miss and that leg.
	for deadline := time.Now().Add(5 * time.Second); len(telA.Traces.Snapshot()) < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("a never published the served leg of b's remote hit")
		}
	}

	norm := strings.NewReplacer(a.HTTPAddr(), "<a>", b.HTTPAddr(), "<b>", origin.Addr(), "<origin>")
	stamps := regexp.MustCompile(`"(start|time)": "[^"]*"`)
	spans := regexp.MustCompile(`"(start_us|dur_us)": [0-9]+`)
	var traces, placement strings.Builder
	dump := func(out *strings.Builder, tel *obs.Telemetry, name, query string) string {
		admin, err := obs.ServeAdmin(obs.AdminConfig{Addr: "127.0.0.1:0", Telemetry: tel})
		if err != nil {
			t.Fatal(err)
		}
		defer admin.Close()
		resp, err := http.Get("http://" + admin.Addr() + query)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		s := spans.ReplaceAllString(stamps.ReplaceAllString(norm.Replace(string(body)), `"$1": "<t>"`), `"$1": 0`)
		out.WriteString("== " + name + " " + query + "\n" + s)
		return string(body)
	}
	var recs []struct {
		TraceID string `json:"trace_id"`
		Outcome string `json:"outcome"`
	}
	if err := json.Unmarshal([]byte(dump(&traces, telB, "b", "/debug/trace")), &recs); err != nil {
		t.Fatal(err)
	}
	var remote string
	for _, r := range recs {
		if r.Outcome == "remote-hit" {
			remote = r.TraceID
		}
	}
	if remote == "" {
		t.Fatalf("b's ring holds no remote hit: %+v", recs)
	}
	dump(&traces, telA, "a", "/debug/trace")
	dump(&traces, telA, "a", "/debug/trace?trace="+remote)
	dump(&traces, telB, "b", "/debug/trace?trace="+remote)
	dump(&placement, telB, "b", "/debug/placement")
	dump(&placement, telA, "a", "/debug/placement")
	dump(&placement, telA, "a", "/debug/placement?trace="+remote)
	dump(&placement, telB, "b", "/debug/placement?verdict=accept")

	for file, got := range map[string]string{"debug_trace.golden": traces.String(), "debug_placement.golden": placement.String()} {
		want, err := os.ReadFile("testdata/" + file)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s differs from the golden:\n%s", file, got)
		}
	}
}
