package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/metrics"
	"eacache/internal/netnode"
	"eacache/internal/obs"
	"eacache/internal/resolve"
)

func TestParseMetrics(t *testing.T) {
	body := `# HELP eac_requests_total requests
# TYPE eac_requests_total counter
eac_requests_total{outcome="local-hit"} 12
eac_requests_total{outcome="remote-hit"} 3
eac_placement_decisions_total{decision="accept",role="requester"} 7
eac_cache_expiration_age_seconds +Inf
eac_cache_documents 42
garbage line without a number trailing
eac_weird{label="va\"lue",other="a,b"} 1.5
`
	samples := parseMetrics([]byte(body))
	byName := map[string][]sample{}
	for _, s := range samples {
		byName[s.name] = append(byName[s.name], s)
	}
	if len(byName["eac_requests_total"]) != 2 {
		t.Fatalf("eac_requests_total samples: %+v", byName["eac_requests_total"])
	}
	if byName["eac_requests_total"][0].labels["outcome"] != "local-hit" ||
		byName["eac_requests_total"][0].value != 12 {
		t.Fatalf("first sample wrong: %+v", byName["eac_requests_total"][0])
	}
	pd := byName["eac_placement_decisions_total"][0]
	if pd.labels["decision"] != "accept" || pd.labels["role"] != "requester" || pd.value != 7 {
		t.Fatalf("labelled counter wrong: %+v", pd)
	}
	if len(byName["eac_cache_documents"]) != 1 || byName["eac_cache_documents"][0].value != 42 {
		t.Fatalf("bare gauge wrong: %+v", byName["eac_cache_documents"])
	}
	w := byName["eac_weird"][0]
	if w.labels["label"] != `va"lue` || w.labels["other"] != "a,b" || w.value != 1.5 {
		t.Fatalf("escaped labels wrong: %+v", w)
	}
	if _, ok := byName["garbage"]; ok {
		t.Fatal("malformed line was not skipped")
	}
}

// TestLabelValuesRoundTrip: a label value holding a newline, a quote, a
// backslash and a tab comes back from a node's exposition through
// parseLabels as it went in, and the exposition uses no escape but the
// three the text format defines.
func TestLabelValuesRoundTrip(t *testing.T) {
	const odd = "a\nb\"c\\d\te"
	r := new(obs.Registry)
	r.Register(obs.Family{Name: "eac_odd", Help: "odd labels", Collect: func(emit func(obs.Labels, float64)) {
		emit(obs.Labels{"peer": odd, "zone": "plain"}, 2)
	}})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if want := `eac_odd{peer="a\nb\"c\\d` + "\t" + `e",zone="plain"} 2` + "\n"; !strings.HasSuffix(sb.String(), want) {
		t.Fatalf("exposition:\n%s\nwant the sample %q", sb.String(), want)
	}
	samples := parseMetrics([]byte(sb.String()))
	if len(samples) != 1 || samples[0].labels["peer"] != odd || samples[0].labels["zone"] != "plain" || samples[0].value != 2 {
		t.Fatalf("parsed %+v, want peer=%q zone=plain value 2", samples, odd)
	}
}

// startGroupMember boots one observed node plus its admin surface, the
// same wiring proxyd does, and returns the node and its admin address.
func startGroupMember(t *testing.T, id, origin string) (*netnode.Node, string) {
	return startGroupMemberLoc(t, id, origin, resolve.LocateICP)
}

func startGroupMemberLoc(t *testing.T, id, origin string, loc resolve.Location) (*netnode.Node, string) {
	t.Helper()
	store, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: 1 << 20, ExpirationHorizon: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New(id, 64)
	cfg := netnode.Config{
		ID:         id,
		ICPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Store:      store,
		Scheme:     core.EA{},
		OriginAddr: origin,
		ICPTimeout: 500 * time.Millisecond,
		Location:   loc,
		HashName:   id,
		Obs:        tel,
	}
	if loc == resolve.LocateDigest {
		// Fast revalidation so digest e2e tests see background delta
		// refreshes within their polling window.
		cfg.DigestRefresh = 40 * time.Millisecond
	}
	n, err := netnode.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = n.Close() })
	admin, err := obs.ServeAdmin(obs.AdminConfig{
		Addr:      "127.0.0.1:0",
		Telemetry: tel,
		Info:      map[string]string{"service": "proxyd", "node": id},
		Routes:    n.AdminRoutes(),
		HealthDetail: func() map[string]any {
			return map[string]any{
				"node":             id,
				"membership_epoch": n.Epoch(),
				"ring_fingerprint": fmt.Sprintf("%016x", n.RingFingerprint()),
				"peers_active":     n.ActivePeers(),
				"draining":         n.Draining(),
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = admin.Close() })
	return n, admin.Addr()
}

// TestEacctlAgainstLiveGroup is the CLI's acceptance test: boot a real
// two-node group, drive a miss / local-hit / remote-hit mix, then run
// eacctl report (text and JSON) seeded with only ONE admin address and
// check it discovered the other member, aggregated the hit mix, and
// computed the replication factor; finally stitch the remote hit's trace
// across both nodes.
func TestEacctlAgainstLiveGroup(t *testing.T) {
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()

	a, adminA := startGroupMember(t, "node-a", origin.Addr())
	b, adminB := startGroupMember(t, "node-b", origin.Addr())
	a.SetPeers([]netnode.Peer{{ICP: b.ICPAddr(), HTTP: b.HTTPAddr(), Name: "node-b", Admin: adminB}})
	b.SetPeers([]netnode.Peer{{ICP: a.ICPAddr(), HTTP: a.HTTPAddr(), Name: "node-a", Admin: adminA}})

	const url = "http://ctl.example.edu/doc"
	if res, err := a.Request(url, 1024); err != nil || res.Outcome != metrics.Miss {
		t.Fatalf("miss: %+v %v", res, err)
	}
	if res, err := a.Request(url, 1024); err != nil || res.Outcome != metrics.LocalHit {
		t.Fatalf("local hit: %+v %v", res, err)
	}
	res, err := b.Request(url, 1024)
	if err != nil || res.Outcome != metrics.RemoteHit {
		t.Fatalf("remote hit: %+v %v", res, err)
	}

	// Text report, seeded with a's admin only — b must be discovered.
	var out, errb bytes.Buffer
	if err := run([]string{"-addr", adminA, "report"}, &out, &errb); err != nil {
		t.Fatalf("eacctl report: %v\nstderr: %s", err, errb.String())
	}
	text := out.String()
	for _, want := range []string{
		"group: 2 members scraped",
		"node-a", "node-b",
		"requests: 3 total",
		"replication: 1 distinct documents, 1.00 copies/doc (max 1)",
		"epochs agree",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q:\n%s", want, text)
		}
	}

	// JSON report agrees with the live counters.
	out.Reset()
	if err := run([]string{"-addr", adminA, "-json", "report"}, &out, &errb); err != nil {
		t.Fatalf("eacctl -json report: %v", err)
	}
	var rep GroupReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report JSON: %v\n%s", err, out.String())
	}
	if rep.TotalRequests != 3 || rep.ReachableMember != 2 {
		t.Fatalf("aggregate wrong: %+v", rep)
	}
	if rep.HitMix["local-hit"] == 0 || rep.HitMix["remote-hit"] == 0 {
		t.Fatalf("hit mix missing outcomes: %+v", rep.HitMix)
	}
	if rep.Replication != 1.0 || rep.DistinctDocs != 1 || rep.MaxCopies != 1 {
		t.Fatalf("replication wrong: %+v", rep)
	}
	if !rep.EpochAgreement {
		t.Fatalf("epochs should agree: %+v", rep.Nodes)
	}
	// The group decision tally covers both sides of the remote hit.
	if rep.Decisions["requester/reject"] == 0 || rep.Decisions["responder/reject"] == 0 {
		t.Fatalf("decision tallies missing: %+v", rep.Decisions)
	}

	// Stitch the remote hit's trace: the requester record lives in b's
	// ring, the serve record in a's — one eacctl invocation joins them.
	if res.TraceID == 0 {
		t.Fatalf("remote hit carries no trace ID: %+v", res)
	}
	out.Reset()
	if err := run([]string{"-addr", adminA, "trace", res.TraceID.String()}, &out, &errb); err != nil {
		t.Fatalf("eacctl trace: %v\nstderr: %s", err, errb.String())
	}
	timeline := out.String()
	for _, want := range []string{
		"trace " + res.TraceID.String() + ": 2 record(s) across 2 node(s)",
		"url: " + url,
		"[hop 0] node-b",
		"[hop 1] node-a",
		"serve-hit",
	} {
		if !strings.Contains(timeline, want) {
			t.Errorf("timeline missing %q:\n%s", want, timeline)
		}
	}

	// JSON timeline is causally ordered: hop 0 before hop 1, parent link
	// intact.
	out.Reset()
	if err := run([]string{"-addr", adminA, "-json", "trace", res.TraceID.String()}, &out, &errb); err != nil {
		t.Fatalf("eacctl -json trace: %v", err)
	}
	var tl Timeline
	if err := json.Unmarshal(out.Bytes(), &tl); err != nil {
		t.Fatalf("timeline JSON: %v\n%s", err, out.String())
	}
	if len(tl.Records) != 2 {
		t.Fatalf("timeline holds %d records, want 2", len(tl.Records))
	}
	if tl.Records[0].Hop != 0 || tl.Records[1].Hop != 1 {
		t.Fatalf("timeline out of order: hops %d,%d", tl.Records[0].Hop, tl.Records[1].Hop)
	}
	if tl.Records[1].ParentID != tl.Records[0].ID {
		t.Fatalf("parent link broken: %q vs %q", tl.Records[1].ParentID, tl.Records[0].ID)
	}
}

// TestEacctlTierReport boots a member whose memory tier overflows into a
// blob disk tier and checks that eacctl surfaces the eac_tier_* gauges:
// a tier table in the text report and a populated tier view in JSON,
// while the untiered render path stays clean for memory-only members.
func TestEacctlTierReport(t *testing.T) {
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()

	store, err := cache.NewSharded(cache.ShardedConfig{Shards: 1, Capacity: 4000, ExpirationHorizon: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	tel := obs.New("tier-a", 64)
	n, err := netnode.New(netnode.Config{
		ID:           "tier-a",
		ICPAddr:      "127.0.0.1:0",
		HTTPAddr:     "127.0.0.1:0",
		Store:        store,
		Scheme:       core.EA{},
		OriginAddr:   origin.Addr(),
		ICPTimeout:   500 * time.Millisecond,
		Obs:          tel,
		DiskDir:      t.TempDir(),
		DiskCapacity: 1 << 20,
		DiskDemote:   "always",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = n.Close() }()
	admin, err := obs.ServeAdmin(obs.AdminConfig{
		Addr:      "127.0.0.1:0",
		Telemetry: tel,
		Info:      map[string]string{"service": "proxyd", "node": "tier-a"},
		Routes:    n.AdminRoutes(),
		HealthDetail: func() map[string]any {
			return map[string]any{"node": "tier-a"}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = admin.Close() }()

	// Overflow the 4000-byte memory tier so victims demote, then re-read
	// the first document so a promotion registers too.
	for i := 0; i < 8; i++ {
		if _, err := n.Request(fmt.Sprintf("http://tierctl.example.edu/doc%d", i), 1000); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n.Request("http://tierctl.example.edu/doc0", 1000); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	if err := run([]string{"-addr", admin.Addr(), "-json", "report"}, &out, &errb); err != nil {
		t.Fatalf("eacctl -json report: %v\nstderr: %s", err, errb.String())
	}
	var rep GroupReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report JSON: %v\n%s", err, out.String())
	}
	if len(rep.Nodes) != 1 || rep.Nodes[0].Tier == nil {
		t.Fatalf("tiered member carries no tier view: %+v", rep.Nodes)
	}
	tv := rep.Nodes[0].Tier
	if tv.DiskCapacity != 1<<20 || tv.DiskDocs == 0 || tv.DiskBytes == 0 {
		t.Fatalf("disk occupancy not scraped: %+v", tv)
	}
	if tv.Demotions == 0 || tv.Promotions == 0 {
		t.Fatalf("tier counters not scraped: %+v", tv)
	}
	if tv.ChecksumFailures != 0 {
		t.Fatalf("checksum failures scraped as %v, want 0", tv.ChecksumFailures)
	}

	out.Reset()
	if err := run([]string{"-addr", admin.Addr(), "report"}, &out, &errb); err != nil {
		t.Fatalf("eacctl report: %v\nstderr: %s", err, errb.String())
	}
	text := out.String()
	for _, want := range []string{"DISK-DOCS", "DISK-CAP", "CKSUM-FAIL", "tier-a"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

func TestEacctlFlagAndCommandErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"report"}, "-addr is required"},
		{[]string{"-addr", "127.0.0.1:1", "frobnicate"}, "unknown command"},
		{[]string{"-addr", "127.0.0.1:1", "trace"}, "trace <trace-id>"},
	}
	for _, tc := range cases {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestDigestGroupDeltaSteadyState is the CI digest-smoke gate: boot a
// three-node digest-located group, drive enough traffic that every
// member fetches its peers' summaries, then let the background
// revalidators run. After the first full-transfer handshakes, every
// refresh must ride the change-log as a compact delta, so the
// group-wide delta count eacctl sums from every member's eac_digest_*
// scrape must overtake the full count — and the counter-saturation escape hatch
// must never fire.
func TestDigestGroupDeltaSteadyState(t *testing.T) {
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()

	const groupSize = 3
	var (
		nodes  []*netnode.Node
		admins []string
	)
	for i := 0; i < groupSize; i++ {
		n, admin := startGroupMemberLoc(t, fmt.Sprintf("dg-%d", i), origin.Addr(), resolve.LocateDigest)
		nodes = append(nodes, n)
		admins = append(admins, admin)
	}
	for i, n := range nodes {
		var peers []netnode.Peer
		for j, other := range nodes {
			if i == j {
				continue
			}
			peers = append(peers, netnode.Peer{
				ICP: other.ICPAddr(), HTTP: other.HTTPAddr(),
				Name: other.ID(), Admin: admins[j],
			})
		}
		n.SetPeers(peers)
	}

	// Each node caches its own slice of documents, then every node
	// requests a document homed elsewhere so all six peer-digest
	// replicas get populated (the first contact is a full transfer).
	for i, n := range nodes {
		for d := 0; d < 8; d++ {
			url := fmt.Sprintf("http://digest.example.edu/n%d/doc%d", i, d)
			if _, err := n.Request(url, 1024); err != nil {
				t.Fatalf("seed %s via %s: %v", url, n.ID(), err)
			}
		}
	}
	for i, n := range nodes {
		url := fmt.Sprintf("http://digest.example.edu/n%d/doc0", (i+1)%groupSize)
		if _, err := n.Request(url, 1024); err != nil {
			t.Fatalf("cross request via %s: %v", n.ID(), err)
		}
	}

	// Poll the aggregated report until background revalidation has
	// served more deltas than the handshake served fulls.
	report := func() *GroupReport {
		t.Helper()
		var out, errb bytes.Buffer
		if err := run([]string{"-addr", admins[0], "-json", "report"}, &out, &errb); err != nil {
			t.Fatalf("eacctl -json report: %v\nstderr: %s", err, errb.String())
		}
		var rep GroupReport
		if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
			t.Fatalf("report JSON: %v\n%s", err, out.String())
		}
		return &rep
	}
	deadline := time.Now().Add(5 * time.Second)
	var rep *GroupReport
	for {
		rep = report()
		if rep.DigestEnabled && rep.DigestDeltasServed > rep.DigestFullsServed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("deltas never overtook fulls: %d deltas vs %d fulls",
				rep.DigestDeltasServed, rep.DigestFullsServed)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if rep.ReachableMember != groupSize {
		t.Fatalf("scraped %d members, want %d", rep.ReachableMember, groupSize)
	}
	if rep.DigestRebuildEscapes != 0 {
		t.Fatalf("digest rebuild escapes = %d, want 0", rep.DigestRebuildEscapes)
	}
	if rep.DigestFetchFailures != 0 {
		t.Fatalf("digest fetch failures = %d, want 0", rep.DigestFetchFailures)
	}
	// Per-node views carry generations and peer freshness.
	for _, nr := range rep.Nodes {
		if nr.Digest == nil || !nr.Digest.Enabled {
			t.Fatalf("node %s has no digest view", nr.Node)
		}
		if nr.Digest.OwnGeneration == 0 {
			t.Fatalf("node %s never advanced its digest generation", nr.Node)
		}
	}

	// The text report renders the digest summary and per-peer table.
	var out, errb bytes.Buffer
	if err := run([]string{"-addr", admins[0], "report"}, &out, &errb); err != nil {
		t.Fatalf("eacctl report: %v\nstderr: %s", err, errb.String())
	}
	text := out.String()
	for _, want := range []string{"digest sync:", "PEER-GEN", "dg-0", "dg-1", "dg-2"} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
}

// TestHashGroupReplicationBound is the CI observability gate: under
// consistent-hash location every document has exactly one home node and
// the EA placement rules never spread extra copies, so the group-wide
// replication factor eacctl computes from the /admin/resident lists must
// stay at (or below) 1.0 no matter how the load is spread.
func TestHashGroupReplicationBound(t *testing.T) {
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer origin.Close()

	const groupSize = 3
	var (
		nodes  []*netnode.Node
		admins []string
	)
	for i := 0; i < groupSize; i++ {
		n, admin := startGroupMemberLoc(t, fmt.Sprintf("hash-%d", i), origin.Addr(), resolve.LocateHash)
		nodes = append(nodes, n)
		admins = append(admins, admin)
	}
	for i, n := range nodes {
		var peers []netnode.Peer
		for j, other := range nodes {
			if i == j {
				continue
			}
			peers = append(peers, netnode.Peer{
				ICP: other.ICPAddr(), HTTP: other.HTTPAddr(),
				Name: other.ID(), Admin: admins[j],
			})
		}
		n.SetPeers(peers)
	}

	// Every node requests every document: each URL is fetched through its
	// hash home once and then served remotely to the other members — the
	// worst case for accidental copy spread.
	const docs = 40
	for round := 0; round < 2; round++ {
		for i := 0; i < docs; i++ {
			url := fmt.Sprintf("http://hash.example.edu/doc%03d", i)
			for _, n := range nodes {
				if _, err := n.Request(url, 1024); err != nil {
					t.Fatalf("request %s via %s: %v", url, n.ID(), err)
				}
			}
		}
	}

	var out, errb bytes.Buffer
	if err := run([]string{"-addr", admins[0], "-json", "report"}, &out, &errb); err != nil {
		t.Fatalf("eacctl -json report: %v\nstderr: %s", err, errb.String())
	}
	var rep GroupReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("report JSON: %v\n%s", err, out.String())
	}
	if rep.ReachableMember != groupSize {
		t.Fatalf("scraped %d members, want %d", rep.ReachableMember, groupSize)
	}
	if rep.DistinctDocs != docs {
		t.Fatalf("distinct documents = %d, want %d", rep.DistinctDocs, docs)
	}
	if rep.Replication > 1.0 {
		t.Fatalf("replication factor %.3f exceeds 1.0 under hash location (max copies %d)",
			rep.Replication, rep.MaxCopies)
	}
	if !rep.RingAgreement {
		t.Fatalf("ring fingerprints disagree across the group: %+v", rep.Nodes)
	}
	// Hash mode trades local hits for zero duplication: the remote-hit
	// share must dominate on the second round.
	if rep.HitMix["remote-hit"] == 0 {
		t.Fatalf("no remote hits recorded: %+v", rep.HitMix)
	}
}
