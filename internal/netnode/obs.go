package netnode

import (
	"math"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
	"eacache/internal/metrics"
	"eacache/internal/obs"
)

// Stage indexes for the request lifecycle. The hot path indexes plain
// arrays with these instead of hashing stage-name strings: the request
// path runs with cold caches, where a map lookup costs several times an
// array index.
const (
	stLocalLookup = iota
	stICPFanout
	stDigestScan
	stRemoteFetch
	stParentFetch
	stOriginFetch
	stageCount
)

var stageNames = [stageCount]string{
	obs.StageLocalLookup, obs.StageICPFanout, obs.StageDigestScan,
	obs.StageRemoteFetch, obs.StageParentFetch, obs.StageOriginFetch,
}

// Placement-decision roles on the eac_placement_decisions_total counter:
// the requester-side store rule, the responder-side promote rule, and the
// parent's §3.3 keep-a-copy rule.
const (
	roleRequester = iota
	roleResponder
	roleParent
	roleCount
)

var roleNames = [roleCount]string{"requester", "responder", "parent"}

// Decision indexes matching the obs.Decision* labels.
const (
	decisionAccept = iota
	decisionReject
	decisionPromote
	decisionCount
)

var decisionNames = [decisionCount]string{
	obs.DecisionAccept, obs.DecisionReject, obs.DecisionPromote,
}

// Request-outcome indexes: the three metrics.Outcome values (shifted to
// zero base) plus a terminal-error bucket.
const (
	ocLocalHit = iota
	ocRemoteHit
	ocMiss
	ocError
	outcomeCount
)

// outcomeError is the label for requests that ended in a terminal error.
const outcomeError = "error"

var outcomeNames = [outcomeCount]string{
	metrics.LocalHit.String(), metrics.RemoteHit.String(),
	metrics.Miss.String(), outcomeError,
}

func outcomeIndex(res Result, err error) int {
	if err != nil {
		return ocError
	}
	if idx := int(res.Outcome) - 1; idx >= ocLocalHit && idx <= ocMiss {
		return idx
	}
	return ocError
}

// decisionOf maps a placement scheme's store verdict to the decision index.
func decisionOf(store bool) int {
	if store {
		return decisionAccept
	}
	return decisionReject
}

// Peer-failure causes on eac_peer_failures_total: an ICP query that
// could not be sent, a peer silent through a full ICP timeout, a fetch
// that failed to dial or broke mid-body, a failed digest fetch.
const (
	pfICPSend = iota
	pfICPSilent
	pfFetch
	pfDigestFetch
	pfCount
)

var peerFailureNames = [pfCount]string{"icp-send", "icp-silent", "fetch", "digest-fetch"}

// Membership event indexes on eac_membership_events_total.
const (
	memEjection = iota
	memReadmission
	memCount
)

// Two-valued label sets; each pair indexes a [2]obs.Counter.
var (
	memEventNames   = [memCount]string{"ejection", "readmission"}
	electionNames   = [2]string{elInitial: "initial", elRetry: "retry"}
	breakerNames    = [2]string{brOpen: "open", brClose: "close"}
	clampNames      = [2]string{clampAge: "expiration-age", clampTrace: "trace-context"}
	digestKindNames = [2]string{digestSyncFull: "full", digestSyncDelta: "delta"}
)

const (
	elInitial, elRetry   = 0, 1
	brOpen, brClose      = 0, 1
	clampAge, clampTrace = 0, 1
)

// nodeObs is the node's one set of event counters. Each fact has one
// counter here and each event site makes one call on it; the counters are
// plain values, so they count whether or not Config.Obs is set —
// Robustness and DigestStats read them directly — and with a registry
// the same storage is exposed by pointer on /metrics (families, below).
// Layout is measured, not incidental: embedded in Node the per-request
// counter writes shared cache lines with fields every request reads, and
// local_hot served 6.4 % fewer requests than the parent (10 of 10 pairs);
// held by pointer with the histogram pointers beside the hot counters,
// 4.4 % fewer (8 of 10); as below, 0.4 % (7 of 10, inside the spread).
// Only what costs the request path more than it pays today waits for
// telemetry (n.obs): the per-request outcome counters, every histogram (a
// clock read each) and the cache-event counters (a store event sink).
type nodeObs struct {
	// Written on every request, by every core that serves one: these
	// come first, a cache line each, and nothing a request only reads
	// sits within a line pair of them — the histogram pointers are last.
	requests [outcomeCount]obs.Counter                   // eac_requests_total{outcome}
	bytes    [outcomeCount]obs.Counter                   // eac_bytes_served_total{outcome}
	events   [cache.EventPromoteFromDisk + 1]obs.Counter // by cache.EventKind

	// decisions counts every (role, decision) pair; only the meaningful
	// ones are exposed.
	decisions    [roleCount][decisionCount]obs.Counter
	icpReplies   obs.Counter
	peerFailures [pfCount]obs.Counter
	retries      obs.Counter // extra attempts: next hit responder, repeated upstream fetch
	fallbacks    obs.Counter // cooperative path abandoned for the parent/origin
	breaker      [2]obs.Counter
	clamps       [2]obs.Counter

	coalesced     obs.Counter
	elections     [2]obs.Counter
	sheds         obs.Counter
	upstreamWaits obs.Counter

	memEvents  [memCount]obs.Counter
	migrations [mrCount]obs.Counter
	migrBytes  obs.Counter

	checkpoints   obs.Counter
	checkpointErr obs.Counter

	// Digest maintenance (digestmode.go), indexed by digestSyncFull/Delta.
	digestServed   [2]obs.Counter
	digestApplied  [2]obs.Counter
	digestBytes    [2]obs.Counter
	digestRebuilds obs.Counter
	digestStale    obs.Counter

	reqDur          [outcomeCount]*obs.Histogram // eac_request_duration_seconds{outcome}
	stageDur        [stageCount]*obs.Histogram   // eac_stage_duration_seconds{stage}
	upstreamWaitDur *obs.Histogram               // eac_origin_sem_wait_seconds
}

// series is one exposed time series: a label set and exactly one source.
type series struct {
	labels obs.Labels
	c      *obs.Counter    // counted by the node, exposed by pointer
	g      func() float64  // read at scrape time
	h      **obs.Histogram // created by the registry, cached for the recorder
}

// family is one row of the registration table. collect, when set, emits
// the family's series at scrape time instead.
type family struct {
	name, help string
	series     []series
	collect    func(emit func(obs.Labels, float64))
}

func counter(c *obs.Counter) []series { return []series{{c: c}} }

func gauge[T int | int64 | float64](f func() T) []series {
	return []series{{g: func() float64 { return float64(f()) }}}
}

// counters exposes cs[i] under {key: names[i]}.
func counters(key string, names []string, cs []obs.Counter) []series {
	out := make([]series, len(names))
	for i, name := range names {
		out[i] = series{labels: obs.Labels{key: name}, c: &cs[i]}
	}
	return out
}

func histograms(key string, names []string, hs []*obs.Histogram) []series {
	out := make([]series, len(names))
	for i, name := range names {
		out[i] = series{labels: obs.Labels{key: name}, h: &hs[i]}
	}
	return out
}

// tiers is a per-tier gauge pair. An untiered node (b nil) scrapes zeros
// for the disk series, so dashboards stay stable across configurations.
func tiers[T int | int64](mem func() T, b *blob.Store, disk func(*blob.Store) T) []series {
	m, d := gauge(mem), gauge(func() T {
		if b == nil {
			return 0
		}
		return disk(b)
	})
	m[0].labels, d[0].labels = obs.Labels{"tier": "memory"}, obs.Labels{"tier": "disk"}
	return append(m, d...)
}

// families is the node's whole /metrics catalogue (METRICS.md tabulates
// the same rows; TestMetricsCatalogue holds the two equal).
func (o *nodeObs) families(n *Node, mem *cache.ShardedStore) []family {
	st, disk := n.store, n.blobStore
	tier := func(f func(cache.TierCounters) int64) []series {
		return gauge(func() int64 { return f(st.TierCounters()) })
	}
	var decisions, transfers []series
	for _, rd := range [][2]int{
		{roleRequester, decisionAccept}, {roleRequester, decisionReject},
		{roleResponder, decisionPromote}, {roleResponder, decisionReject},
		{roleParent, decisionAccept}, {roleParent, decisionReject},
	} {
		decisions = append(decisions, series{
			labels: obs.Labels{"role": roleNames[rd[0]], "decision": decisionNames[rd[1]]},
			c:      &o.decisions[rd[0]][rd[1]],
		})
	}
	for kind, name := range digestKindNames {
		transfers = append(transfers,
			series{labels: obs.Labels{"kind": name, "dir": "served"}, c: &o.digestServed[kind]},
			series{labels: obs.Labels{"kind": name, "dir": "applied"}, c: &o.digestApplied[kind]})
	}
	var kinds []string
	for k := cache.EventInsert; k <= cache.EventPromoteFromDisk; k++ {
		kinds = append(kinds, k.String())
	}
	return []family{
		{"eac_requests_total", "Requests served, by final outcome.", counters("outcome", outcomeNames[:], o.requests[:]), nil},
		{"eac_bytes_served_total", "Body bytes served to clients, by final outcome.", counters("outcome", outcomeNames[:], o.bytes[:]), nil},
		{"eac_request_duration_seconds", "End-to-end request latency, by final outcome.", histograms("outcome", outcomeNames[:], o.reqDur[:]), nil},
		{"eac_stage_duration_seconds", "Per-stage latency of the request lifecycle.", histograms("stage", stageNames[:], o.stageDur[:]), nil},
		{"eac_inflight_requests", "Requests inside the front door (0 when shedding is disabled).", gauge(func() int { return len(n.inflight) }), nil},
		{"eac_placement_decisions_total", "EA placement decisions, by deciding role and outcome.", decisions, nil},

		{"eac_icp_replies_total", "ICP replies heard across all fan-outs.", counter(&o.icpReplies), nil},
		{"eac_peer_failures_total", "Failed exchanges with a peer (each also a breaker failure report), by cause.", counters("cause", peerFailureNames[:], o.peerFailures[:]), nil},
		{"eac_fetch_retries_total", "Extra attempts after a failure: the next hit responder, or a repeated upstream fetch.", counter(&o.retries), nil},
		{"eac_fallbacks_total", "Requests that left the cooperative path for the parent/origin, or a broken parent for the origin.", counter(&o.fallbacks), nil},
		{"eac_breaker_transitions_total", "Peer breakers opening (peer marked dead) and closing (a dead peer answered a probe).", counters("transition", breakerNames[:], o.breaker[:]), nil},
		{"eac_wire_clamps_total", "Malformed piggybacked headers clamped or dropped instead of trusted.", counters("header", clampNames[:], o.clamps[:]), nil},
		{"eac_peer_breaker_state", "Breaker state of each current member: 0 healthy, 1 suspect, 2 dead.", nil, n.peerStates},

		{"eac_digest_transfers_total", "Digest transfers, by kind (full filter vs generation delta) and direction.", transfers, nil},
		{"eac_digest_bytes_total", "Digest body bytes served, by transfer kind.", counters("kind", digestKindNames[:], o.digestBytes[:]), nil},
		{"eac_digest_rebuild_escapes_total", "Full-scan digest rebuilds via the counter-saturation escape hatch (steady state: 0).", counter(&o.digestRebuilds), nil},
		{"eac_digest_stale_served_total", "Lookups answered from a stale peer digest while its refresh was in flight.", counter(&o.digestStale), nil},

		{"eac_cache_events_total", "Cache mutations by kind, across both tiers (a disk-tier exit counts under evict or remove).", counters("kind", kinds, o.events[cache.EventInsert:]), nil},
		{"eac_cache_expiration_age_seconds", "Cache expiration age, the EA contention signal (+Inf = no contention yet).", gauge(n.expirationAgeSeconds), nil},
		{"eac_cache_documents", "Resident documents.", gauge(st.Len), nil},
		{"eac_cache_bytes", "Resident bytes.", gauge(st.Used), nil},
		{"eac_cache_evictions", "Documents evicted by the replacement policy.", gauge(st.Evictions), nil},

		{"eac_tier_documents", "Resident documents, by storage tier.", tiers(mem.Len, disk, (*blob.Store).Len), nil},
		{"eac_tier_bytes", "Resident bytes, by storage tier.", tiers(mem.Used, disk, (*blob.Store).Used), nil},
		{"eac_tier_capacity_bytes", "Byte budget, by storage tier.", tiers(mem.Capacity, disk, (*blob.Store).Capacity), nil},
		{"eac_tier_demotions", "Memory victims moved to the disk tier instead of exiting.", tier(func(c cache.TierCounters) int64 { return c.Demotions }), nil},
		{"eac_tier_demotion_drops", "Memory victims the demotion rule (or a refusing disk tier) dropped.", tier(func(c cache.TierCounters) int64 { return c.DemotionDrops }), nil},
		{"eac_tier_promotions", "Disk hits re-promoted into the memory tier.", tier(func(c cache.TierCounters) int64 { return c.Promotions }), nil},
		{"eac_tier_disk_evictions", "Documents the disk tier evicted (true exits from the node).", tier(func(c cache.TierCounters) int64 { return c.DiskEvictions }), nil},
		{"eac_tier_checksum_failures", "Blobs that failed verification (dropped, the document refetched).", tier(func(c cache.TierCounters) int64 { return c.ChecksumFailures }), nil},

		{"eac_requests_shed_total", "Requests refused at the front door: in-flight bound and queue-wait budget exceeded.", counter(&o.sheds), nil},
		{"eac_coalesced_followers_total", "Requests served as single-flight followers of a concurrent miss for the same URL.", counter(&o.coalesced), nil},
		{"eac_coalesce_leader_elections_total", "Single-flight leader elections (initial epoch vs post-failure retry).", counters("kind", electionNames[:], o.elections[:]), nil},
		{"eac_origin_sem_waits_total", "Upstream fetches that found the origin-concurrency semaphore full and queued.", counter(&o.upstreamWaits), nil},
		{"eac_origin_sem_wait_seconds", "Time contended upstream fetches queued for a slot, won or timed out.", []series{{h: &o.upstreamWaitDur}}, nil},

		{"eac_membership_events_total", "Breaker-driven membership changes (ejections and readmissions).", counters("event", memEventNames[:], o.memEvents[:]), nil},
		{"eac_migration_docs_total", "Documents processed by migration passes, by per-document result.", counters("result", migrateResultNames[:], o.migrations[:]), nil},
		{"eac_migration_bytes_total", "Body bytes transferred by migration handoffs.", counter(&o.migrBytes), nil},

		{"eac_checkpoints_total", "Completed snapshot+journal-rotation checkpoints.", counter(&o.checkpoints), nil},
		{"eac_checkpoint_failures_total", "Checkpoints that failed.", counter(&o.checkpointErr), nil},
	}
}

// peerStates emits eac_peer_breaker_state from the member table as it is
// at the scrape, so a departed peer leaves /metrics with its membership.
func (n *Node) peerStates(emit func(obs.Labels, float64)) {
	n.mem.Lock()
	members := n.mem.members // replaced, never mutated, by every change
	n.mem.Unlock()
	for _, p := range members {
		emit(obs.Labels{"peer": p.HTTP}, float64(n.health.State(p.HTTP)))
	}
}

func (n *Node) expirationAgeSeconds() float64 {
	if age := n.ExpirationAge(); age != cache.NoContention {
		return age.Seconds()
	}
	return math.Inf(1)
}

// register exposes the catalogue on tel's registry; without telemetry the
// counters count unexposed and the histograms stay nil.
func (o *nodeObs) register(n *Node, mem *cache.ShardedStore, tel *obs.Telemetry) {
	if tel == nil {
		return
	}
	r := tel.Registry
	for _, f := range o.families(n, mem) {
		if f.collect != nil {
			r.GaugeSet(f.name, f.help, f.collect)
		}
		for _, s := range f.series {
			switch {
			case s.c != nil:
				r.RegisterCounter(f.name, f.help, s.labels, s.c)
			case s.g != nil:
				r.GaugeFunc(f.name, f.help, s.labels, s.g)
			default:
				*s.h = r.Histogram(f.name, f.help, s.labels, nil)
			}
		}
	}
}

// observeRequest records the end-to-end outcome of one Request call.
func (n *Node) observeRequest(res Result, err error, dur time.Duration) {
	if n.obs == nil {
		return
	}
	idx := outcomeIndex(res, err)
	n.om.requests[idx].Inc()
	n.om.bytes[idx].Add(res.Size)
	n.om.reqDur[idx].ObserveDuration(dur)
}

// cacheEvent is the store's telemetry event sink (chained after the
// persistence sink when both are on).
func (o *nodeObs) cacheEvent(ev cache.Event) {
	if int(ev.Kind) < len(o.events) {
		o.events[ev.Kind].Inc()
	}
}

// placementSpan stamps the EA decision onto the trace — a placement span
// marking where in the timeline the rule ran, with both piggybacked
// expiration ages and the verdict on the trace's top-level fields —
// counts it, and appends it to the audit log. The span itself carries no
// attributes: duplicating the ages there would cost three string
// allocations on every non-local-hit request for data the trace already
// has.
func (n *Node) placementSpan(tr *obs.Trace, role int, url string, size int64, reqAge, respAge time.Duration, decision int) {
	n.om.decisions[role][decision].Inc()
	n.auditDecision(tr, role, url, decisionNames[decision], size, reqAge, respAge)
	if tr == nil {
		return
	}
	idx := tr.OpenSpan(obs.StagePlacement, time.Now())
	tr.CloseSpan(idx, 0)
	tr.RequesterAgeMS = obs.AgeMS(reqAge)
	tr.ResponderAgeMS = obs.AgeMS(respAge)
	tr.Decision = decisionNames[decision]
}

// auditDecision appends one placement verdict — with the two eq.-5
// expiration-age inputs exactly as the rule saw them — to the node's
// bounded decision log (served by /debug/placement). localAge is always
// the deciding node's own expiration age, peerAge the one piggybacked
// from the other side, whichever role this node played. Unlike traces
// the log is not sampled: every decision of every request is recorded
// (copied into the ring by value, so the record below never leaves the
// stack), because the audit's value is exactness.
func (n *Node) auditDecision(tr *obs.Trace, role int, url, verdict string, size int64, localAge, peerAge time.Duration) {
	if n.obs == nil || n.obs.Placement == nil {
		return
	}
	n.obs.Placement.Record(obs.Decision{
		Time: n.now(), Node: n.id, URL: url,
		Role: roleNames[role], Verdict: verdict,
		LocalAgeMS: obs.AgeMS(localAge), PeerAgeMS: obs.AgeMS(peerAge),
		SizeBytes: size,
	}, tr)
}

// stageTimer brackets one lifecycle stage. It is a plain value (no
// closure, no heap) because every stage of every request opens one.
type stageTimer struct {
	start time.Time
	span  int
	stage int8
	live  bool
}

// startStage opens one lifecycle stage on both the trace (span) and the
// stage histogram; close it with endStage. One clock read covers both
// sinks.
func (n *Node) startStage(tr *obs.Trace, stage int) stageTimer {
	if tr == nil && n.obs == nil {
		return stageTimer{}
	}
	st := stageTimer{start: time.Now(), stage: int8(stage), live: true}
	st.span = tr.OpenSpan(stageNames[stage], st.start)
	return st
}

// endStage seals the stage opened by startStage.
func (n *Node) endStage(tr *obs.Trace, st stageTimer) {
	if !st.live {
		return
	}
	dur := time.Since(st.start)
	tr.CloseSpan(st.span, dur)
	if n.obs != nil {
		n.om.stageDur[st.stage].ObserveDuration(dur)
	}
}
