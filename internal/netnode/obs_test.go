package netnode

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"os"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/metrics"
	"eacache/internal/obs"
	"eacache/internal/race"
	"eacache/internal/resolve"
)

// startObservedNode is startNode plus a Telemetry wired into the node.
func startObservedNode(t *testing.T, id string, scheme core.Scheme, origin string) (*Node, *obs.Telemetry) {
	t.Helper()
	tel := obs.New(id, 64)
	n, err := New(Config{
		ID:         id,
		ICPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Store:      newStore(t, 1<<20),
		Scheme:     scheme,
		OriginAddr: origin,
		ICPTimeout: 500 * time.Millisecond,
		Obs:        tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	return n, tel
}

func httpGet(t *testing.T, url string) (int, string) {
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

// TestGroupTelemetryEndToEnd is the PR's acceptance test: run a live
// two-node cooperative group with telemetry on, drive a miss / local-hit /
// remote-hit mix through it over real sockets, then scrape the admin
// surface of the requesting node over HTTP and check that the metrics,
// the trace dump (with both piggybacked expiration ages on the remote
// hit), and pprof all come back.
func TestGroupTelemetryEndToEnd(t *testing.T) {
	origin := startOrigin(t)
	a, _ := startObservedNode(t, "a", core.EA{}, origin.Addr())
	b, telB := startObservedNode(t, "b", core.EA{}, origin.Addr())
	mesh(a, b)

	// Miss at a (origin fetch + store), then local hit at a, then remote
	// hit at b via ICP + inter-proxy fetch.
	const url = "http://obs.example.edu/doc"
	if res, err := a.Request(url, 4096); err != nil || res.Outcome != metrics.Miss {
		t.Fatalf("warm-up miss: res=%+v err=%v", res, err)
	}
	if res, err := a.Request(url, 4096); err != nil || res.Outcome != metrics.LocalHit {
		t.Fatalf("local hit: res=%+v err=%v", res, err)
	}
	res, err := b.Request(url, 4096)
	if err != nil || res.Outcome != metrics.RemoteHit {
		t.Fatalf("remote hit: res=%+v err=%v", res, err)
	}
	if res.Responder != a.HTTPAddr() {
		t.Fatalf("responder = %q, want %q", res.Responder, a.HTTPAddr())
	}

	admin, err := obs.ServeAdmin(obs.AdminConfig{Addr: "127.0.0.1:0", Telemetry: telB})
	if err != nil {
		t.Fatal(err)
	}
	defer admin.Close()
	base := "http://" + admin.Addr()

	code, body := httpGet(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{
		`eac_requests_total{outcome="remote-hit"} 1`,
		`eac_bytes_served_total{outcome="remote-hit"} 4096`,
		`eac_request_duration_seconds_count{outcome="remote-hit"} 1`,
		`eac_stage_duration_seconds_count{stage="local-lookup"} 1`,
		`eac_stage_duration_seconds_count{stage="icp-fanout"} 1`,
		`eac_stage_duration_seconds_count{stage="remote-fetch"} 1`,
		`eac_placement_decisions_total{decision="reject",role="requester"} 1`,
		`eac_peer_breaker_state{peer="` + a.HTTPAddr() + `"} 0`,
		`eac_icp_replies_total 1`,
		"eac_cache_expiration_age_seconds",
		"eac_cache_events_total",
		`eac_stage_duration_seconds_bucket{stage="icp-fanout",le="+Inf"} 1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Fatalf("metrics body:\n%s", body)
	}

	code, body = httpGet(t, base+"/debug/trace")
	if code != 200 {
		t.Fatalf("/debug/trace = %d", code)
	}
	var traces []obs.Trace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("trace dump: %v\n%s", err, body)
	}
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if tr.Outcome != "remote-hit" || tr.URL != url || tr.Responder != a.HTTPAddr() {
		t.Fatalf("trace = %+v", tr)
	}
	// Both piggybacked expiration ages travelled with the remote hit:
	// neither cache has evicted yet, so both report the no-contention
	// sentinel (-1). On this tie the strict EA rule neither stores at the
	// requester nor promotes at the responder.
	if tr.RequesterAgeMS != -1 || tr.ResponderAgeMS != -1 {
		t.Fatalf("ages = %d/%d, want -1/-1 (no contention)", tr.RequesterAgeMS, tr.ResponderAgeMS)
	}
	if tr.Decision != obs.DecisionReject || tr.Stored {
		t.Fatalf("decision = %q stored=%v, want reject/unstored on an age tie", tr.Decision, tr.Stored)
	}
	stages := make(map[string]bool)
	var fanout *obs.Span
	for i, sp := range tr.Spans {
		stages[sp.Stage] = true
		if sp.Stage == obs.StageICPFanout {
			fanout = &tr.Spans[i]
		}
	}
	for _, want := range []string{obs.StageLocalLookup, obs.StageICPFanout, obs.StageRemoteFetch, obs.StagePlacement} {
		if !stages[want] {
			t.Fatalf("trace missing stage %q (spans %+v)", want, tr.Spans)
		}
	}
	if fanout.Attrs.Get("queried") != "1" || fanout.Attrs.Get("hits") != "1" {
		t.Fatalf("icp-fanout span attrs = %+v", fanout.Attrs)
	}

	if code, _ := httpGet(t, base+"/debug/pprof/heap?debug=1"); code != 200 {
		t.Fatalf("pprof heap = %d", code)
	}
}

// TestResponderPromoteCounter checks the responder-side leg of the EA
// decision telemetry: node a serves b's remote hit and counts its own
// promote/reject verdict.
func TestResponderPromoteCounter(t *testing.T) {
	origin := startOrigin(t)
	a, telA := startObservedNode(t, "a", core.EA{}, origin.Addr())
	b, _ := startObservedNode(t, "b", core.EA{}, origin.Addr())
	mesh(a, b)

	url := "http://obs.example.edu/promote"
	if _, err := a.Request(url, 1024); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Request(url, 1024); err != nil {
		t.Fatal(err)
	}

	var sb strings.Builder
	if err := telA.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	body := sb.String()
	// EA with equal (no-contention) ages does not promote at the
	// responder, so the reject leg must have fired exactly once.
	if !strings.Contains(body, `eac_placement_decisions_total{decision="reject",role="responder"} 1`) {
		t.Fatalf("responder decision not counted:\n%s", body)
	}
}

// TestNodeWithoutTelemetryStaysInert pins the nil-telemetry contract: no
// Config.Obs means no traces, no metrics, and no crashes anywhere on the
// request path.
func TestNodeWithoutTelemetryStaysInert(t *testing.T) {
	origin := startOrigin(t)
	n := startNode(t, "plain", 1<<20, core.EA{}, origin.Addr())
	if _, err := n.Request("http://obs.example.edu/inert", 512); err != nil {
		t.Fatal(err)
	}
	if n.cfg.Obs != nil || n.om.reqDur[ocMiss] != nil || n.om.requests[ocMiss].Value() != 0 {
		t.Fatal("telemetry should be absent")
	}
}

// TestPlacementRecordsWhatTheStoreDid: a placement record carries the
// scheme's verdict and what the store did with the copy. A copy the
// scheme accepts but the store refuses, too large for the node or offered
// to a draining node, as requester or as parent, is recorded as an accept
// with its refusal and counted as a reject. TestHomeStoreAfterEpochChange
// forces the off-ring refusal.
func TestPlacementRecordsWhatTheStoreDid(t *testing.T) {
	origin := startOrigin(t)
	a, tel := startObservedNode(t, "a", core.AdHoc{}, origin.Addr())
	child := startChaosNode(t, Config{ID: "child", ParentAddr: a.HTTPAddr()})
	expect := func(what, role, outcome, reason string) {
		t.Helper()
		ds := tel.Placement.Snapshot()
		d := ds[len(ds)-1]
		if d.Role != role || d.Verdict != obs.DecisionAccept || d.Outcome != outcome || d.Reason != reason {
			t.Fatalf("%s: record %+v, want %s accept, outcome %q, reason %q", what, d, role, outcome, reason)
		}
	}
	request := func(n *Node, url string, size int64, stored bool) {
		t.Helper()
		if res, err := n.Request(url, size); err != nil || res.Outcome != metrics.Miss || res.Stored != stored {
			t.Fatalf("%s: res=%+v err=%v, want a miss with stored=%v", url, res, err, stored)
		}
	}

	request(a, "http://obs.example.edu/fits", 4096, true)
	expect("fits", obs.RoleRequester, obs.OutcomeStored, "")
	request(a, "http://obs.example.edu/huge", 2<<20, false)
	expect("too large", obs.RoleRequester, obs.OutcomeRefused, obs.ReasonTooLarge)
	a.DrainHandoff()
	request(a, "http://obs.example.edu/drained", 4096, false)
	expect("draining requester", obs.RoleRequester, obs.OutcomeRefused, obs.ReasonDraining)
	request(child, "http://obs.example.edu/relayed", 4096, true)
	expect("draining parent", obs.RoleParent, obs.OutcomeRefused, obs.ReasonDraining)
	if a.Contains("http://obs.example.edu/relayed") {
		t.Fatal("the draining parent kept a copy")
	}

	_, samples := scrape(t, tel)
	for series, want := range map[string]float64{
		`eac_placement_decisions_total{decision="accept",role="requester"}`: 1,
		`eac_placement_decisions_total{decision="reject",role="requester"}`: 2,
		`eac_placement_decisions_total{decision="reject",role="parent"}`:    1,
	} {
		if samples[series] != want {
			t.Errorf("%s = %v, want %v", series, samples[series], want)
		}
	}
}

// scrape renders tel's registry the way /metrics serves it and returns
// the text plus every sample keyed by its series text.
func scrape(t *testing.T, tel *obs.Telemetry) (string, map[string]float64) {
	t.Helper()
	var sb strings.Builder
	if err := tel.Registry.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q", line)
		}
		samples[line[:cut]] = v
	}
	return sb.String(), samples
}

// TestRobustnessIsTheScrape drives a herd, a shed, a failed peer fetch
// with its fallback and an upstream retry through one observed node, then
// rebuilds the Robustness snapshot from nothing but the /metrics text:
// the two must agree field by field, because there is one counter per
// fact and both read it.
func TestRobustnessIsTheScrape(t *testing.T) {
	checkGoroutines(t)
	const herd = 8
	origin := startGatedOrigin(t)
	tel := obs.New("rb", 8)
	n := startChaosNode(t, Config{
		ID:          "rb",
		OriginAddr:  origin.ln.Addr().String(),
		ICPTimeout:  500 * time.Millisecond,
		MaxInflight: herd,
		DeadAfter:   1,
		Obs:         tel,
	})

	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := n.Request("http://rb.example.edu/hot", 1024); err != nil {
				t.Errorf("herd request: %v", err)
			}
		}()
	}
	waitUntil(t, func() bool { return n.Robustness().CoalescedFollowers == herd-1 })
	if _, s := scrape(t, tel); s["eac_inflight_requests"] != herd {
		t.Fatalf("eac_inflight_requests = %v with %d requests parked, want %d", s["eac_inflight_requests"], herd, herd)
	}
	if _, err := n.Request("http://rb.example.edu/shed", 1024); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("request over the in-flight bound: err = %v, want ErrOverloaded", err)
	}
	close(origin.gate)
	wg.Wait()

	// A neighbour that answers HIT but refuses the fetch: one peer
	// failure, its breaker opens, the request falls back to the origin —
	// whose first connection is dropped, so the upstream fetch retries.
	n.SetPeers([]Peer{fakeHitPeer(t, deadTCPAddr(t))})
	origin.drop.Store(1)
	if _, err := n.Request("http://rb.example.edu/degraded", 1024); err != nil {
		t.Fatalf("degraded request: %v", err)
	}

	text, s := scrape(t, tel)
	val := func(series string) int64 {
		v, ok := s[series]
		if !ok {
			t.Errorf("series %s is not on /metrics", series)
		}
		return int64(v)
	}
	initial, retry := val(`eac_coalesce_leader_elections_total{kind="initial"}`), val(`eac_coalesce_leader_elections_total{kind="retry"}`)
	scraped := metrics.RobustnessSnapshot{
		PeerFailures: val(`eac_peer_failures_total{cause="icp-send"}`) + val(`eac_peer_failures_total{cause="icp-silent"}`) +
			val(`eac_peer_failures_total{cause="fetch"}`) + val(`eac_peer_failures_total{cause="digest-fetch"}`),
		Retries:            val("eac_fetch_retries_total"),
		Fallbacks:          val("eac_fallbacks_total"),
		BreakerOpens:       val(`eac_breaker_transitions_total{transition="open"}`),
		BreakerCloses:      val(`eac_breaker_transitions_total{transition="close"}`),
		WireClamps:         val(`eac_wire_clamps_total{header="expiration-age"}`),
		TraceClamps:        val(`eac_wire_clamps_total{header="trace-context"}`),
		CoalescedFollowers: val("eac_coalesced_followers_total"),
		LeaderElections:    initial + retry,
		LeaderRetries:      retry,
		Sheds:              val("eac_requests_shed_total"),
		OriginWaits:        val("eac_origin_sem_waits_total"),
		Ejections:          val(`eac_membership_events_total{event="ejection"}`),
		Readmissions:       val(`eac_membership_events_total{event="readmission"}`),
		MigratedDocs:       val(`eac_migration_docs_total{result="transferred"}`),
		MigratedBytes:      val("eac_migration_bytes_total"),
		MigrationFailures:  val(`eac_migration_docs_total{result="failed"}`),
	}
	rb := n.Robustness()
	if scraped != rb {
		t.Fatalf("scrape and Robustness() disagree:\n scrape %+v\n node   %+v\n%s", scraped, rb, text)
	}
	if rb.CoalescedFollowers != herd-1 || rb.Sheds != 1 || rb.PeerFailures != 1 || rb.BreakerOpens != 1 ||
		rb.Fallbacks != 1 || rb.Retries != 1 || rb.LeaderElections != 2 {
		t.Fatalf("robustness = %+v, want the herd, the shed, the failed fetch, its fallback and the retry", rb)
	}
}

// TestOriginWaitTimeoutIsCounted: a miss that queues for the origin
// semaphore and gives up at FetchTimeout is on /metrics like one that won
// its slot — counted where it contends, its wait observed on both exits.
func TestOriginWaitTimeoutIsCounted(t *testing.T) {
	checkGoroutines(t)
	origin := startGatedOrigin(t) // stalls every fetch until the gate opens
	defer close(origin.gate)
	tel := obs.New("ow", 8)
	n := startChaosNode(t, Config{
		ID:                "ow",
		OriginAddr:        origin.ln.Addr().String(),
		OriginConcurrency: 1,
		FetchTimeout:      50 * time.Millisecond,
		FetchAttempts:     4, // the winner holds the only slot for 200ms
		Obs:               tel,
	})
	errs := make(chan error, 2)
	go func() { _, err := n.Request("http://ow.example.edu/winner", 1024); errs <- err }()
	waitUntil(t, func() bool { return origin.fetches.Load() == 1 })
	go func() { _, err := n.Request("http://ow.example.edu/loser", 1024); errs <- err }()
	for i := 0; i < 2; i++ {
		if err := <-errs; err == nil {
			t.Fatal("a miss against the stalled origin succeeded")
		}
	}
	_, s := scrape(t, tel)
	if s["eac_origin_sem_waits_total"] != 1 || s["eac_origin_sem_wait_seconds_count"] != 1 {
		t.Fatalf("timed-out wait not on /metrics: waits_total = %v, wait_seconds_count = %v, want 1 and 1",
			s["eac_origin_sem_waits_total"], s["eac_origin_sem_wait_seconds_count"])
	}
	if got := n.Robustness().OriginWaits; got != 1 {
		t.Fatalf("Robustness().OriginWaits = %d, want 1", got)
	}
}

// TestRemovedPeerLeavesTheScrape: the per-peer family follows the member
// table — a departed peer's series go with it and a joiner brings exactly
// one back.
func TestRemovedPeerLeavesTheScrape(t *testing.T) {
	tel := obs.New("rp", 8)
	n := startChaosNode(t, Config{ID: "rp", OriginAddr: deadTCPAddr(t), Obs: tel})
	peers := []Peer{
		{ICP: udpAddr(t, "127.0.0.1:4101"), HTTP: "127.0.0.1:5101"},
		{ICP: udpAddr(t, "127.0.0.1:4102"), HTTP: "127.0.0.1:5102"},
		{ICP: udpAddr(t, "127.0.0.1:4103"), HTTP: "127.0.0.1:5103"},
	}
	perPeer := func() map[string][]string {
		text, _ := scrape(t, tel)
		series := make(map[string][]string)
		for _, line := range strings.Split(text, "\n") {
			for _, p := range peers {
				if line != "" && line[0] != '#' && strings.Contains(line, p.HTTP) {
					series[p.HTTP] = append(series[p.HTTP], line)
				}
			}
		}
		return series
	}
	n.SetPeers(peers)
	if got := perPeer(); len(got) != 3 {
		t.Fatalf("three members, per-peer series for %d: %v", len(got), got)
	}
	if err := n.RemovePeer(peers[1].HTTP); err != nil {
		t.Fatal(err)
	}
	if got := perPeer(); len(got) != 2 || got[peers[1].HTTP] != nil {
		t.Fatalf("removed peer still scraped: %v", got)
	}
	if err := n.AddPeer(peers[1]); err != nil {
		t.Fatal(err)
	}
	want := []string{`eac_peer_breaker_state{peer="` + peers[1].HTTP + `"} 0`}
	if got := perPeer(); len(got) != 3 || !reflect.DeepEqual(got[peers[1].HTTP], want) {
		t.Fatalf("rejoined peer's series = %v, want exactly %v", got[peers[1].HTTP], want)
	}
}

// catalogueRow is one family as METRICS.md tabulates it and as a scrape
// shows it: "<kind> <sorted label keys>".
var (
	catalogueLabel = regexp.MustCompile("`([a-z_]+)`")
	catalogueRow   = regexp.MustCompile("^\\| `(eac_[a-z_]+)` \\| (counter|gauge|histogram) \\| ([^|]*) \\|")
)

// TestMetricsCatalogue holds METRICS.md and the live /metrics equal: the
// same families, each with the same kind and label keys, in both
// directions — so a family cannot be added, dropped or relabelled in one
// and not the other. Registration does not depend on configuration; the
// two locations with every subsystem on are there to prove that.
func TestMetricsCatalogue(t *testing.T) {
	doc, err := os.ReadFile("../../METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	documented := make(map[string]string)
	for _, line := range strings.Split(string(doc), "\n") {
		m := catalogueRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		keys := catalogueLabel.FindAllStringSubmatch(m[3], -1)
		labels := make([]string, len(keys))
		for i, k := range keys {
			labels[i] = k[1]
		}
		sort.Strings(labels)
		documented[m[1]] = m[2] + " " + strings.Join(labels, ",")
	}

	for _, loc := range []resolve.Location{resolve.LocateHash, resolve.LocateDigest} {
		t.Run(loc.String(), func(t *testing.T) {
			tel := obs.New("cat", 8)
			n := startChaosNode(t, Config{
				ID: "cat", OriginAddr: deadTCPAddr(t), Location: loc, Obs: tel,
				DataDir: t.TempDir(), DiskDir: t.TempDir(), DiskCapacity: 1 << 20,
				MaxInflight: 4, EjectAfter: time.Minute,
			})
			n.SetPeers([]Peer{{ICP: udpAddr(t, "127.0.0.1:4201"), HTTP: "127.0.0.1:5201"}})
			if err := n.checkpoint(); err != nil {
				t.Fatal(err)
			}
			text, s := scrape(t, tel)
			if s["eac_checkpoints_total"] != 1 || s["eac_checkpoint_failures_total"] != 0 {
				t.Errorf("one good checkpoint scraped as %v done, %v failed", s["eac_checkpoints_total"], s["eac_checkpoint_failures_total"])
			}
			scraped := make(map[string]string)
			kinds := make(map[string]string)
			for _, line := range strings.Split(text, "\n") {
				if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
					kinds[f[2]] = f[3]
				}
			}
			for series := range s {
				name, rest, _ := strings.Cut(series, "{")
				if _, ok := kinds[name]; !ok { // a histogram's _bucket/_sum/_count
					name = name[:strings.LastIndexByte(name, '_')]
				}
				var labels []string
				for _, kv := range strings.Split(strings.TrimSuffix(rest, "}"), ",") {
					if k, _, ok := strings.Cut(kv, "="); ok && k != "le" {
						labels = append(labels, k)
					}
				}
				sort.Strings(labels)
				scraped[name] = kinds[name] + " " + strings.Join(labels, ",")
			}
			for name, shape := range documented {
				if scraped[name] != shape {
					t.Errorf("%s: METRICS.md says %q, /metrics serves %q", name, shape, scraped[name])
				}
			}
			for name, shape := range scraped {
				if _, ok := documented[name]; !ok {
					t.Errorf("%s (%s) is on /metrics and not in METRICS.md", name, shape)
				}
			}
		})
	}
}

// TestAuditDecisionAllocatesNothing: the exact, unsampled placement audit
// copies its record into the ring by value, on an unsampled request and
// on a sampled one, whose numbers the copy names it by.
func TestAuditDecisionAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	n, tel := startObservedNode(t, "n", core.EA{}, "")
	tel.SetTraceSampling(1)
	tr := tel.StartTrace("n", "http://x.example.edu/doc")
	for i := 0; i < obs.DefaultDecisionCapacity; i++ { // the ring grows until full
		n.auditDecision(nil, resolve.RoleParent, "http://x.example.edu/fill", false, resolve.NotOffered, 1, 0, 0)
	}
	for _, tr := range []*obs.Trace{nil, tr} {
		if got := testing.AllocsPerRun(200, func() {
			n.auditDecision(tr, resolve.RoleRequester, "http://x.example.edu/doc", true, resolve.RefusedTooLarge, 4096, 3*time.Second, cache.NoContention)
		}); got != 0 {
			t.Errorf("auditDecision (traced: %v): %.1f allocs per verdict, want 0", tr != nil, got)
		}
	}
	id := tel.Finish(tr)
	rec := tel.Traces.Snapshot()[0]
	if d := tel.Placement.Snapshot(); len(d) == 0 || d[len(d)-1].TraceID != id.String() || d[len(d)-1].RequestID != rec.ID || d[len(d)-1].PeerAgeMS != -1 {
		t.Fatalf("the audited verdicts did not reach the log as request %s of trace %s: %+v", rec.ID, id, d[len(d)-1])
	}
}

// TestTracedLocalHitAllocatesNothing: a request that stays off the wire
// allocates nothing, traced or not — with every request sampled, a local
// hit's record is copied into a full ring, not allocated.
func TestTracedLocalHitAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	origin := startOrigin(t)
	n, tel := startObservedNode(t, "n", core.EA{}, origin.Addr())
	const url = "http://x.example.edu/resident"
	if _, err := n.Request(url, 4096); err != nil {
		t.Fatal(err)
	}
	for _, sampling := range []int{1 << 30, 1} {
		tel.SetTraceSampling(sampling)
		for i := 0; i < 64; i++ { // the ring grows until full
			if _, err := n.Request(url, 4096); err != nil {
				t.Fatal(err)
			}
		}
		if got := testing.AllocsPerRun(200, func() {
			if res, err := n.Request(url, 4096); err != nil || res.Outcome != metrics.LocalHit {
				t.Fatalf("local hit: %+v, %v", res, err)
			}
		}); got != 0 {
			t.Errorf("local hit at sampling %d: %.1f allocs per request, want 0", sampling, got)
		}
	}
	if recs := tel.Traces.Snapshot(); len(recs) != 64 || recs[63].Outcome != metrics.LocalHit.String() || recs[63].URL != url {
		t.Fatalf("ring holds %d records, the last %+v", len(recs), recs[len(recs)-1])
	}
}
