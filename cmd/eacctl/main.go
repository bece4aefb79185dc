// Command eacctl introspects a running cooperative cache group from any
// one member's admin address. It walks the membership table to find every
// node's admin surface, scrapes /metrics, /healthz, /admin/peers and
// /admin/resident from each, and renders a group-wide report: hit mix,
// byte hit rate, EA contention spread, placement-decision tallies,
// replication factor, breaker and membership state. The trace subcommand
// stitches one distributed trace — every node's spans for a single
// group-wide trace ID — into a causally ordered timeline.
//
// Usage:
//
//	eacctl -addr 127.0.0.1:9081 report
//	eacctl -addr 127.0.0.1:9081 -json report
//	eacctl -addr 127.0.0.1:9081 trace 7d60c84a96a4f2e1
//
// eacctl talks only to admin surfaces (obs.ServeAdmin); it never touches
// the ICP or fetch ports, so it is safe to run against a loaded group.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "eacctl:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eacctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "", "admin address of any group member (host:port); the rest are discovered")
		jsonOut = fs.Bool("json", false, "emit the report as JSON instead of text")
		timeout = fs.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: eacctl -addr <admin-addr> [-json] [report | trace <trace-id>]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required (any member's admin address)")
	}
	cl := &client{hc: &http.Client{Timeout: *timeout}}

	cmd, rest := "report", fs.Args()
	if len(rest) > 0 {
		cmd, rest = rest[0], rest[1:]
	}
	switch cmd {
	case "report":
		rep, err := buildReport(cl, *addr, stderr)
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeJSON(stdout, rep)
		}
		renderReport(stdout, rep)
		return nil
	case "trace":
		if len(rest) != 1 {
			return fmt.Errorf("usage: eacctl -addr <admin-addr> trace <trace-id>")
		}
		tl, err := buildTimeline(cl, *addr, rest[0], stderr)
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeJSON(stdout, tl)
		}
		renderTimeline(stdout, tl)
		return nil
	default:
		return fmt.Errorf("unknown command %q (want report or trace)", cmd)
	}
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// client is the thin admin-surface HTTP client. All decoding targets are
// local mirror structs, so eacctl works against any node that speaks the
// admin JSON — it shares no Go types with the server.
type client struct{ hc *http.Client }

func (c *client) getJSON(addr, path string, v any) error {
	body, err := c.getBody(addr, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func (c *client) getBody(addr, path string) ([]byte, error) {
	resp, err := c.hc.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
}

// membershipView mirrors the GET /admin/peers body.
type membershipView struct {
	Self     string      `json:"self"`
	Epoch    int64       `json:"epoch"`
	Draining bool        `json:"draining"`
	Members  []memberRow `json:"members"`
}

type memberRow struct {
	Name    string `json:"name"`
	HTTP    string `json:"http"`
	Admin   string `json:"admin"`
	State   string `json:"state"`
	Ejected bool   `json:"ejected"`
}

// discover walks from the seed member to every admin address the group
// knows: the seed itself plus each member row that carries one. Members
// without a published admin address are reported and skipped — their
// traffic still shows in their own scrape if reached through another
// seed, but this walk cannot reach them.
func discover(cl *client, seed string, stderr io.Writer) ([]string, error) {
	var view membershipView
	if err := cl.getJSON(seed, "/admin/peers", &view); err != nil {
		return nil, fmt.Errorf("discover members via %s: %w", seed, err)
	}
	addrs := []string{seed}
	seen := map[string]bool{seed: true}
	for _, m := range view.Members {
		if m.Admin == "" {
			fmt.Fprintf(stderr, "eacctl: member %s (%s) publishes no admin address; skipping\n", m.Name, m.HTTP)
			continue
		}
		if !seen[m.Admin] {
			seen[m.Admin] = true
			addrs = append(addrs, m.Admin)
		}
	}
	return addrs, nil
}

// healthDetail mirrors the JSON /healthz body (older nodes answer plain
// "ok"; every field stays zero then).
type healthDetail struct {
	Status          string `json:"status"`
	Node            string `json:"node"`
	MembershipEpoch int64  `json:"membership_epoch"`
	RingFingerprint string `json:"ring_fingerprint"`
	PeersActive     int    `json:"peers_active"`
	Draining        bool   `json:"draining"`
}

// residentView mirrors GET /admin/resident.
type residentView struct {
	Node      string   `json:"node"`
	Documents int      `json:"documents"`
	URLs      []string `json:"urls"`
}

// digestView is one member's digest machinery: the replica state GET
// /admin/digests serves (netnode.DigestReport) plus, under Stats, the
// eac_digest_* event counts of the member's /metrics scrape.
type digestView struct {
	Enabled        bool                      `json:"enabled"`
	OwnGeneration  uint64                    `json:"own_generation"`
	OwnLen         int                       `json:"own_len"`
	Window         int                       `json:"window"`
	PinnedCounters int                       `json:"pinned_counters"`
	Stats          digestStatsView           `json:"stats"`
	Peers          map[string]digestPeerView `json:"peers"`
}

type digestStatsView struct {
	DeltasServed     float64 `json:"deltas_served"`
	FullsServed      float64 `json:"fulls_served"`
	DeltasApplied    float64 `json:"deltas_applied"`
	FullsApplied     float64 `json:"fulls_applied"`
	DeltaBytesServed float64 `json:"delta_bytes_served"`
	FullBytesServed  float64 `json:"full_bytes_served"`
	RebuildEscapes   float64 `json:"rebuild_escapes"`
	StaleServed      float64 `json:"stale_served"`
	FetchFailures    float64 `json:"fetch_failures"`
}

type digestPeerView struct {
	Generation    uint64 `json:"generation"`
	AgeMS         int64  `json:"age_ms"`
	Len           int    `json:"len"`
	Refreshing    bool   `json:"refreshing"`
	DeltasApplied int64  `json:"deltas_applied"`
	FullsApplied  int64  `json:"fulls_applied"`
}

// NodeReport is one member's scrape, reduced to the numbers the group
// report aggregates.
type NodeReport struct {
	Admin           string             `json:"admin"`
	Node            string             `json:"node"`
	Err             string             `json:"err,omitempty"`
	Epoch           int64              `json:"epoch"`
	RingFingerprint string             `json:"ring_fingerprint,omitempty"`
	PeersActive     int                `json:"peers_active"`
	Draining        bool               `json:"draining"`
	Requests        map[string]float64 `json:"requests"`       // outcome -> count
	Bytes           map[string]float64 `json:"bytes"`          // outcome -> body bytes
	Decisions       map[string]float64 `json:"decisions"`      // "role/decision" -> count
	EAAgeSeconds    float64            `json:"ea_age_seconds"` // -1 = no contention (+Inf gauge)
	Documents       float64            `json:"documents"`      // resident docs (gauge)
	CacheBytes      float64            `json:"cache_bytes"`    // resident bytes (gauge)
	Evictions       float64            `json:"evictions"`      // policy evictions
	Breakers        []memberRow        `json:"breakers,omitempty"`
	Digest          *digestView        `json:"digest,omitempty"` // nil when the member predates /admin/digests
	Tier            *tierView          `json:"tier,omitempty"`   // nil when the member has no disk tier
	Resident        []string           `json:"-"`                // URLs, for the replication factor
}

// tierView is one member's eac_tier_* scrape: per-tier occupancy plus the
// tier controller's monotonic counters. Attached to the report only when
// the member actually runs a disk tier (capacity > 0) — untiered nodes
// publish the same gauges as zeros.
type tierView struct {
	MemDocs          float64 `json:"mem_documents"`
	MemBytes         float64 `json:"mem_bytes"`
	MemCapacity      float64 `json:"mem_capacity"`
	DiskDocs         float64 `json:"disk_documents"`
	DiskBytes        float64 `json:"disk_bytes"`
	DiskCapacity     float64 `json:"disk_capacity"`
	Demotions        float64 `json:"demotions"`
	DemotionDrops    float64 `json:"demotion_drops"`
	Promotions       float64 `json:"promotions"`
	DiskEvictions    float64 `json:"disk_evictions"`
	ChecksumFailures float64 `json:"checksum_failures"`
}

// GroupReport is the aggregate over every reachable member.
type GroupReport struct {
	Nodes []NodeReport `json:"nodes"`

	TotalRequests   float64            `json:"total_requests"`
	HitMix          map[string]float64 `json:"hit_mix"` // outcome -> fraction of requests
	ByteHitRate     float64            `json:"byte_hit_rate"`
	Decisions       map[string]float64 `json:"decisions"` // "role/decision" -> group total
	DistinctDocs    int                `json:"distinct_documents"`
	TotalCopies     int                `json:"total_copies"`
	Replication     float64            `json:"replication_factor"` // copies per distinct document
	MaxCopies       int                `json:"max_copies"`
	EpochAgreement  bool               `json:"epoch_agreement"`
	RingAgreement   bool               `json:"ring_agreement"`
	ScrapeFailures  int                `json:"scrape_failures"`
	ReachableMember int                `json:"reachable_members"`

	// Digest-location health, summed over members that locate via
	// digests (all zero in ICP and hash groups).
	DigestEnabled        bool  `json:"digest_enabled"`
	DigestDeltasServed   int64 `json:"digest_deltas_served"`
	DigestFullsServed    int64 `json:"digest_fulls_served"`
	DigestDeltaBytes     int64 `json:"digest_delta_bytes_served"`
	DigestFullBytes      int64 `json:"digest_full_bytes_served"`
	DigestRebuildEscapes int64 `json:"digest_rebuild_escapes"`
	DigestStaleServed    int64 `json:"digest_stale_served"`
	DigestFetchFailures  int64 `json:"digest_fetch_failures"`
}

func buildReport(cl *client, seed string, stderr io.Writer) (*GroupReport, error) {
	addrs, err := discover(cl, seed, stderr)
	if err != nil {
		return nil, err
	}
	rep := &GroupReport{
		HitMix:    map[string]float64{},
		Decisions: map[string]float64{},
	}
	for _, a := range addrs {
		nr := scrapeNode(cl, a)
		rep.Nodes = append(rep.Nodes, nr)
		if nr.Err != "" {
			rep.ScrapeFailures++
			continue
		}
		rep.ReachableMember++
		for oc, v := range nr.Requests {
			rep.TotalRequests += v
			rep.HitMix[oc] += v
		}
		for k, v := range nr.Decisions {
			rep.Decisions[k] += v
		}
		if d := nr.Digest; d != nil && d.Enabled {
			rep.DigestEnabled = true
			rep.DigestDeltasServed += int64(d.Stats.DeltasServed)
			rep.DigestFullsServed += int64(d.Stats.FullsServed)
			rep.DigestDeltaBytes += int64(d.Stats.DeltaBytesServed)
			rep.DigestFullBytes += int64(d.Stats.FullBytesServed)
			rep.DigestRebuildEscapes += int64(d.Stats.RebuildEscapes)
			rep.DigestStaleServed += int64(d.Stats.StaleServed)
			rep.DigestFetchFailures += int64(d.Stats.FetchFailures)
		}
	}
	if rep.ReachableMember == 0 {
		return nil, fmt.Errorf("no member of the group could be scraped")
	}
	if rep.TotalRequests > 0 {
		for oc := range rep.HitMix {
			rep.HitMix[oc] /= rep.TotalRequests
		}
	}
	// Byte hit rate: bytes served without touching the origin over all
	// bytes served. The miss bucket's bytes came from the origin (or the
	// hierarchy above the group); local and remote hits were absorbed.
	var hitBytes, allBytes float64
	for _, nr := range rep.Nodes {
		for oc, v := range nr.Bytes {
			allBytes += v
			if oc == "local-hit" || oc == "remote-hit" {
				hitBytes += v
			}
		}
	}
	if allBytes > 0 {
		rep.ByteHitRate = hitBytes / allBytes
	}
	// Replication factor from the resident lists: how many members hold
	// each distinct document right now.
	copies := map[string]int{}
	for _, nr := range rep.Nodes {
		for _, u := range nr.Resident {
			copies[u]++
		}
	}
	rep.DistinctDocs = len(copies)
	for _, c := range copies {
		rep.TotalCopies += c
		if c > rep.MaxCopies {
			rep.MaxCopies = c
		}
	}
	if rep.DistinctDocs > 0 {
		rep.Replication = float64(rep.TotalCopies) / float64(rep.DistinctDocs)
	}
	rep.EpochAgreement, rep.RingAgreement = agreement(rep.Nodes)
	return rep, nil
}

// agreement reports whether every reachable member publishes the same
// membership epoch, and the same ring fingerprint (nodes without a ring
// — ICP or digest location — all publish the zero fingerprint, which
// agrees trivially).
func agreement(nodes []NodeReport) (epochOK, ringOK bool) {
	epochOK, ringOK = true, true
	first := true
	var epoch int64
	var fp string
	for _, nr := range nodes {
		if nr.Err != "" {
			continue
		}
		if first {
			epoch, fp, first = nr.Epoch, nr.RingFingerprint, false
			continue
		}
		if nr.Epoch != epoch {
			epochOK = false
		}
		if nr.RingFingerprint != fp {
			ringOK = false
		}
	}
	return epochOK, ringOK
}

// seriesTable routes each /metrics series eacctl reads — named by its
// exposition text, labels in the registry's sorted order — to the
// NodeReport field it fills.
var seriesTable = map[string]func(*NodeReport) *float64{
	`eac_cache_expiration_age_seconds`: func(nr *NodeReport) *float64 { return &nr.EAAgeSeconds },
	`eac_cache_documents`:              func(nr *NodeReport) *float64 { return &nr.Documents },
	`eac_cache_bytes`:                  func(nr *NodeReport) *float64 { return &nr.CacheBytes },
	`eac_cache_evictions`:              func(nr *NodeReport) *float64 { return &nr.Evictions },

	`eac_tier_documents{tier="memory"}`:      func(nr *NodeReport) *float64 { return &nr.Tier.MemDocs },
	`eac_tier_documents{tier="disk"}`:        func(nr *NodeReport) *float64 { return &nr.Tier.DiskDocs },
	`eac_tier_bytes{tier="memory"}`:          func(nr *NodeReport) *float64 { return &nr.Tier.MemBytes },
	`eac_tier_bytes{tier="disk"}`:            func(nr *NodeReport) *float64 { return &nr.Tier.DiskBytes },
	`eac_tier_capacity_bytes{tier="memory"}`: func(nr *NodeReport) *float64 { return &nr.Tier.MemCapacity },
	`eac_tier_capacity_bytes{tier="disk"}`:   func(nr *NodeReport) *float64 { return &nr.Tier.DiskCapacity },
	`eac_tier_demotions`:                     func(nr *NodeReport) *float64 { return &nr.Tier.Demotions },
	`eac_tier_demotion_drops`:                func(nr *NodeReport) *float64 { return &nr.Tier.DemotionDrops },
	`eac_tier_promotions`:                    func(nr *NodeReport) *float64 { return &nr.Tier.Promotions },
	`eac_tier_disk_evictions`:                func(nr *NodeReport) *float64 { return &nr.Tier.DiskEvictions },
	`eac_tier_checksum_failures`:             func(nr *NodeReport) *float64 { return &nr.Tier.ChecksumFailures },

	`eac_digest_transfers_total{dir="served",kind="delta"}`:  func(nr *NodeReport) *float64 { return &nr.Digest.Stats.DeltasServed },
	`eac_digest_transfers_total{dir="served",kind="full"}`:   func(nr *NodeReport) *float64 { return &nr.Digest.Stats.FullsServed },
	`eac_digest_transfers_total{dir="applied",kind="delta"}`: func(nr *NodeReport) *float64 { return &nr.Digest.Stats.DeltasApplied },
	`eac_digest_transfers_total{dir="applied",kind="full"}`:  func(nr *NodeReport) *float64 { return &nr.Digest.Stats.FullsApplied },
	`eac_digest_bytes_total{kind="delta"}`:                   func(nr *NodeReport) *float64 { return &nr.Digest.Stats.DeltaBytesServed },
	`eac_digest_bytes_total{kind="full"}`:                    func(nr *NodeReport) *float64 { return &nr.Digest.Stats.FullBytesServed },
	`eac_digest_rebuild_escapes_total`:                       func(nr *NodeReport) *float64 { return &nr.Digest.Stats.RebuildEscapes },
	`eac_digest_stale_served_total`:                          func(nr *NodeReport) *float64 { return &nr.Digest.Stats.StaleServed },
	`eac_peer_failures_total{cause="digest-fetch"}`:          func(nr *NodeReport) *float64 { return &nr.Digest.Stats.FetchFailures },
}

// vectorTable does the same for families reported per label value.
var vectorTable = map[string]struct {
	dst func(*NodeReport) map[string]float64
	key func(labels map[string]string) string
}{
	"eac_requests_total":            {func(nr *NodeReport) map[string]float64 { return nr.Requests }, func(l map[string]string) string { return l["outcome"] }},
	"eac_bytes_served_total":        {func(nr *NodeReport) map[string]float64 { return nr.Bytes }, func(l map[string]string) string { return l["outcome"] }},
	"eac_placement_decisions_total": {func(nr *NodeReport) map[string]float64 { return nr.Decisions }, func(l map[string]string) string { return l["role"] + "/" + l["decision"] }},
}

func scrapeNode(cl *client, addr string) NodeReport {
	nr := NodeReport{
		Admin:        addr,
		Requests:     map[string]float64{},
		Bytes:        map[string]float64{},
		Decisions:    map[string]float64{},
		EAAgeSeconds: -1, // stays -1 when the gauge is absent or +Inf
		Digest:       &digestView{},
		Tier:         &tierView{},
	}
	var hd healthDetail
	if err := cl.getJSON(addr, "/healthz", &hd); err == nil {
		nr.Node = hd.Node
		nr.Epoch = hd.MembershipEpoch
		nr.PeersActive = hd.PeersActive
		nr.Draining = hd.Draining
		if hd.RingFingerprint != "" && hd.RingFingerprint != strings.Repeat("0", 16) {
			nr.RingFingerprint = hd.RingFingerprint
		}
	}
	body, err := cl.getBody(addr, "/metrics")
	if err != nil {
		nr.Err = err.Error()
		return nr
	}
	for _, s := range parseMetrics(body) {
		if dst, ok := seriesTable[s.series]; ok {
			*dst(&nr) = s.value
		} else if v, ok := vectorTable[s.name]; ok {
			v.dst(&nr)[v.key(s.labels)] += s.value
		}
	}
	if math.IsInf(nr.EAAgeSeconds, 1) {
		// +Inf is the no-contention sentinel; JSON cannot carry
		// infinities, so it becomes -1 here and "none" in the report.
		nr.EAAgeSeconds = -1
	}
	if nr.Tier.DiskCapacity == 0 {
		nr.Tier = nil
	}
	var peers membershipView
	if err := cl.getJSON(addr, "/admin/peers", &peers); err == nil {
		nr.Breakers = peers.Members
		if nr.Node == "" {
			nr.Node = peers.Self
		}
	}
	// The replica state decodes around the counts already in Stats.
	if err := cl.getJSON(addr, "/admin/digests", nr.Digest); err != nil {
		nr.Digest = nil
	}
	var res residentView
	if err := cl.getJSON(addr, "/admin/resident", &res); err == nil {
		nr.Resident = res.URLs
		if nr.Node == "" {
			nr.Node = res.Node
		}
	}
	if nr.Node == "" {
		nr.Node = addr
	}
	return nr
}

// sample is one parsed Prometheus text-exposition series point.
type sample struct {
	series string // "name{labels}" exactly as exposed
	name   string
	labels map[string]string
	value  float64
}

// parseMetrics reads the Prometheus 0.0.4 text format the admin surface
// serves: HELP/TYPE comments skipped, one "name{labels} value" or
// "name value" sample per line. Malformed lines are skipped — a report
// built from most of a scrape beats no report.
func parseMetrics(body []byte) []sample {
	var out []sample
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		val, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		series := line[:sp]
		s := sample{series: series, value: val, labels: map[string]string{}}
		if br := strings.IndexByte(series, '{'); br >= 0 {
			if !strings.HasSuffix(series, "}") {
				continue
			}
			s.name = series[:br]
			parseLabels(series[br+1:len(series)-1], s.labels)
		} else {
			s.name = series
		}
		out = append(out, s)
	}
	return out
}

// parseLabels decodes `k1="v1",k2="v2"` with \" \\ \n escapes.
func parseLabels(s string, into map[string]string) {
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || len(s) < eq+2 || s[eq+1] != '"' {
			return
		}
		key := s[:eq]
		rest := s[eq+2:]
		var val strings.Builder
		i := 0
		for i < len(rest) {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				switch rest[i+1] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i+1])
				}
				i += 2
				continue
			}
			if c == '"' {
				break
			}
			val.WriteByte(c)
			i++
		}
		into[key] = val.String()
		s = rest[i:]
		s = strings.TrimPrefix(s, `"`)
		s = strings.TrimPrefix(s, ",")
	}
}

func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

func renderReport(w io.Writer, rep *GroupReport) {
	fmt.Fprintf(w, "group: %d members scraped", rep.ReachableMember)
	if rep.ScrapeFailures > 0 {
		fmt.Fprintf(w, " (%d unreachable)", rep.ScrapeFailures)
	}
	fmt.Fprintln(w)
	agree := func(ok bool) string {
		if ok {
			return "agree"
		}
		return "DISAGREE"
	}
	fmt.Fprintf(w, "topology: epochs %s, ring fingerprints %s\n",
		agree(rep.EpochAgreement), agree(rep.RingAgreement))
	fmt.Fprintf(w, "requests: %.0f total — local %s, remote %s, miss %s, error %s\n",
		rep.TotalRequests, pct(rep.HitMix["local-hit"]), pct(rep.HitMix["remote-hit"]),
		pct(rep.HitMix["miss"]), pct(rep.HitMix["error"]))
	fmt.Fprintf(w, "byte hit rate: %s\n", pct(rep.ByteHitRate))
	if rep.DistinctDocs > 0 {
		fmt.Fprintf(w, "replication: %d distinct documents, %.2f copies/doc (max %d)\n",
			rep.DistinctDocs, rep.Replication, rep.MaxCopies)
	}
	if len(rep.Decisions) > 0 {
		keys := make([]string, 0, len(rep.Decisions))
		for k := range rep.Decisions {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, 0, len(keys))
		for _, k := range keys {
			parts = append(parts, fmt.Sprintf("%s %.0f", k, rep.Decisions[k]))
		}
		fmt.Fprintf(w, "placement decisions: %s\n", strings.Join(parts, ", "))
	}

	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NODE\tADMIN\tREQS\tLOCAL\tREMOTE\tMISS\tDOCS\tBYTES\tEA-AGE\tEPOCH\tPEERS\tSTATE")
	for _, nr := range rep.Nodes {
		if nr.Err != "" {
			fmt.Fprintf(tw, "%s\t%s\tunreachable: %s\n", nr.Node, nr.Admin, nr.Err)
			continue
		}
		var total float64
		for _, v := range nr.Requests {
			total += v
		}
		mix := func(oc string) string {
			if total == 0 {
				return "-"
			}
			return pct(nr.Requests[oc] / total)
		}
		age := "none"
		if nr.EAAgeSeconds >= 0 {
			age = fmt.Sprintf("%.1fs", nr.EAAgeSeconds)
		}
		state := "serving"
		if nr.Draining {
			state = "draining"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.0f\t%s\t%s\t%s\t%.0f\t%.0f\t%s\t%d\t%d\t%s\n",
			nr.Node, nr.Admin, total, mix("local-hit"), mix("remote-hit"), mix("miss"),
			nr.Documents, nr.CacheBytes, age, nr.Epoch, nr.PeersActive, state)
	}
	tw.Flush()

	tiered := false
	for _, nr := range rep.Nodes {
		if nr.Tier != nil {
			tiered = true
			break
		}
	}
	if tiered {
		ttw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(ttw, "NODE\tMEM-DOCS\tDISK-DOCS\tDISK-BYTES\tDISK-CAP\tDEMOTE\tDROP\tPROMOTE\tDISK-EVICT\tCKSUM-FAIL")
		for _, nr := range rep.Nodes {
			tv := nr.Tier
			if tv == nil {
				continue
			}
			fmt.Fprintf(ttw, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\n",
				nr.Node, tv.MemDocs, tv.DiskDocs, tv.DiskBytes, tv.DiskCapacity,
				tv.Demotions, tv.DemotionDrops, tv.Promotions, tv.DiskEvictions, tv.ChecksumFailures)
		}
		ttw.Flush()
	}

	if rep.DigestEnabled {
		transfers := rep.DigestDeltasServed + rep.DigestFullsServed
		ratio := "-"
		if transfers > 0 {
			ratio = pct(float64(rep.DigestDeltasServed) / float64(transfers))
		}
		fmt.Fprintf(w, "digest sync: %d deltas / %d fulls served (%s delta), %d delta bytes vs %d full bytes\n",
			rep.DigestDeltasServed, rep.DigestFullsServed, ratio,
			rep.DigestDeltaBytes, rep.DigestFullBytes)
		if rep.DigestRebuildEscapes > 0 || rep.DigestStaleServed > 0 || rep.DigestFetchFailures > 0 {
			fmt.Fprintf(w, "digest health: %d rebuild escapes, %d stale serves, %d fetch failures\n",
				rep.DigestRebuildEscapes, rep.DigestStaleServed, rep.DigestFetchFailures)
		}
		dtw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(dtw, "NODE\tGEN\tPEER\tPEER-GEN\tAGE\tDELTAS\tFULLS\tSTATE")
		for _, nr := range rep.Nodes {
			d := nr.Digest
			if d == nil || !d.Enabled {
				continue
			}
			if len(d.Peers) == 0 {
				fmt.Fprintf(dtw, "%s\t%d\t-\t-\t-\t-\t-\t-\n", nr.Node, d.OwnGeneration)
				continue
			}
			peers := make([]string, 0, len(d.Peers))
			for p := range d.Peers {
				peers = append(peers, p)
			}
			sort.Strings(peers)
			for _, p := range peers {
				pv := d.Peers[p]
				age := "never"
				if pv.AgeMS >= 0 {
					age = fmt.Sprintf("%.1fs", float64(pv.AgeMS)/1000)
				}
				state := "fresh"
				if pv.Refreshing {
					state = "refreshing"
				}
				fmt.Fprintf(dtw, "%s\t%d\t%s\t%d\t%s\t%d\t%d\t%s\n",
					nr.Node, d.OwnGeneration, p, pv.Generation, age,
					pv.DeltasApplied, pv.FullsApplied, state)
			}
		}
		dtw.Flush()
	}

	// Breaker troubles only; a healthy group prints nothing here.
	for _, nr := range rep.Nodes {
		for _, b := range nr.Breakers {
			if b.State != "healthy" || b.Ejected {
				fmt.Fprintf(w, "breaker: %s sees %s as %s", nr.Node, b.Name, b.State)
				if b.Ejected {
					fmt.Fprint(w, " (ejected)")
				}
				fmt.Fprintln(w)
			}
		}
	}
}

// traceRecord mirrors one /debug/trace entry (obs.Trace JSON).
type traceRecord struct {
	ID             string     `json:"id"`
	TraceID        string     `json:"trace_id"`
	ParentID       string     `json:"parent_id"`
	Hop            int        `json:"hop"`
	Node           string     `json:"node"`
	URL            string     `json:"url"`
	Start          time.Time  `json:"start"`
	Outcome        string     `json:"outcome"`
	SizeBytes      int64      `json:"size_bytes"`
	Responder      string     `json:"responder"`
	RequesterAgeMS int64      `json:"requester_age_ms"`
	ResponderAgeMS int64      `json:"responder_age_ms"`
	Decision       string     `json:"decision"`
	Stored         bool       `json:"stored"`
	Err            string     `json:"err"`
	DurUS          int64      `json:"dur_us"`
	Spans          []spanJSON `json:"spans"`
	AdminAddr      string     `json:"admin_addr"` // which member held the record
}

type spanJSON struct {
	Stage   string            `json:"stage"`
	StartUS int64             `json:"start_us"`
	DurUS   int64             `json:"dur_us"`
	Err     string            `json:"err,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// Timeline is one stitched distributed trace.
type Timeline struct {
	TraceID string        `json:"trace_id"`
	Records []traceRecord `json:"records"`
}

func buildTimeline(cl *client, seed, traceID string, stderr io.Writer) (*Timeline, error) {
	addrs, err := discover(cl, seed, stderr)
	if err != nil {
		return nil, err
	}
	tl := &Timeline{TraceID: traceID}
	for _, a := range addrs {
		var recs []traceRecord
		if err := cl.getJSON(a, "/debug/trace?trace="+traceID, &recs); err != nil {
			fmt.Fprintf(stderr, "eacctl: scrape %s: %v\n", a, err)
			continue
		}
		for i := range recs {
			recs[i].AdminAddr = a
		}
		tl.Records = append(tl.Records, recs...)
	}
	if len(tl.Records) == 0 {
		return nil, fmt.Errorf("no member holds trace %s (rings are bounded; old traces age out)", traceID)
	}
	// Causal order: forwarding depth first, then wall-clock start. Clocks
	// across nodes are close enough on one group for display; the hop and
	// parent IDs carry the real causality.
	sort.Slice(tl.Records, func(i, j int) bool {
		if tl.Records[i].Hop != tl.Records[j].Hop {
			return tl.Records[i].Hop < tl.Records[j].Hop
		}
		return tl.Records[i].Start.Before(tl.Records[j].Start)
	})
	return tl, nil
}

func renderTimeline(w io.Writer, tl *Timeline) {
	nodes := map[string]bool{}
	for _, r := range tl.Records {
		nodes[r.Node] = true
	}
	fmt.Fprintf(w, "trace %s: %d record(s) across %d node(s)\n", tl.TraceID, len(tl.Records), len(nodes))
	if len(tl.Records) > 0 {
		fmt.Fprintf(w, "url: %s\n", tl.Records[0].URL)
	}
	for _, r := range tl.Records {
		indent := strings.Repeat("  ", r.Hop)
		fmt.Fprintf(w, "%s[hop %d] %s %s — %s in %s", indent, r.Hop, r.Node, r.ID, r.Outcome, usDur(r.DurUS))
		if r.ParentID != "" {
			fmt.Fprintf(w, " (parent %s)", r.ParentID)
		}
		fmt.Fprintln(w)
		if r.Decision != "" {
			fmt.Fprintf(w, "%s    placement: %s (requester age %s, responder age %s)\n",
				indent, r.Decision, msAge(r.RequesterAgeMS), msAge(r.ResponderAgeMS))
		}
		if r.Err != "" {
			fmt.Fprintf(w, "%s    error: %s\n", indent, r.Err)
		}
		for _, sp := range r.Spans {
			fmt.Fprintf(w, "%s    %-14s +%s %s", indent, sp.Stage, usDur(sp.StartUS), usDur(sp.DurUS))
			if len(sp.Attrs) > 0 {
				keys := make([]string, 0, len(sp.Attrs))
				for k := range sp.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				for _, k := range keys {
					fmt.Fprintf(w, " %s=%s", k, sp.Attrs[k])
				}
			}
			if sp.Err != "" {
				fmt.Fprintf(w, " err=%s", sp.Err)
			}
			fmt.Fprintln(w)
		}
	}
}

func usDur(us int64) string {
	return time.Duration(us * int64(time.Microsecond)).String()
}

func msAge(ms int64) string {
	if ms < 0 {
		return "none"
	}
	return (time.Duration(ms) * time.Millisecond).String()
}
