package netnode

import (
	"math"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
	"eacache/internal/metrics"
	"eacache/internal/obs"
	"eacache/internal/resolve"
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

// verdictIndex indexes a placement verdict on the
// eac_placement_decisions_total counter, per resolve.Role: 0 for a store,
// promote or keep, 1 for a reject.
func verdictIndex(yes bool) int {
	if yes {
		return 0
	}
	return 1
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
// Robustness reads them directly — and with a registry
// the same storage is exposed by pointer on /metrics (families, below).
// Layout is measured, not incidental: embedded in Node the per-request
// counter writes shared cache lines with fields every request reads, and
// local_hot served 6.4 % fewer requests than the parent (10 of 10 pairs);
// held by pointer with the histogram pointers beside the hot counters,
// 4.4 % fewer (8 of 10); as below, 0.4 % (7 of 10, inside the spread).
// Only what costs the request path more than it pays today waits for
// telemetry (Config.Obs): the per-request outcome counters, every histogram (a
// clock read each) and the cache-event counters (a store event sink).
type nodeObs struct {
	// Written on every request, by every core that serves one: these
	// come first, a cache line each, and nothing a request only reads
	// sits within a line pair of them — the histogram pointers are last.
	requests [outcomeCount]obs.Counter                   // eac_requests_total{outcome}
	bytes    [outcomeCount]obs.Counter                   // eac_bytes_served_total{outcome}
	events   [cache.EventPromoteFromDisk + 1]obs.Counter // by cache.EventKind

	// decisions counts every verdict by role and verdictIndex.
	decisions    [resolve.RoleParent + 1][2]obs.Counter
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

func counter(c *obs.Counter) []obs.Series { return []obs.Series{{Counter: c}} }

func gauge[T int | int64 | float64](f func() T) []obs.Series {
	return []obs.Series{{Gauge: func() float64 { return float64(f()) }}}
}

// histogram creates *h and exposes it.
func histogram(h **obs.Histogram) []obs.Series {
	*h = obs.NewHistogram(nil)
	return []obs.Series{{Histogram: *h}}
}

// counters exposes cs[i] under {key: names[i]}.
func counters(key string, names []string, cs []obs.Counter) []obs.Series {
	out := make([]obs.Series, len(names))
	for i, name := range names {
		out[i] = obs.Series{Labels: obs.Labels{key: name}, Counter: &cs[i]}
	}
	return out
}

// histograms creates hs[i] and exposes it under {key: names[i]}.
func histograms(key string, names []string, hs []*obs.Histogram) []obs.Series {
	out := make([]obs.Series, len(names))
	for i, name := range names {
		out[i] = histogram(&hs[i])[0]
		out[i].Labels = obs.Labels{key: name}
	}
	return out
}

// tiers is a per-tier gauge pair. An untiered node (b nil) scrapes zeros
// for the disk series, so dashboards stay stable across configurations.
func tiers[T int | int64](mem func() T, b *blob.Store, disk func(*blob.Store) T) []obs.Series {
	m, d := gauge(mem), gauge(func() T {
		if b == nil {
			return 0
		}
		return disk(b)
	})
	m[0].Labels, d[0].Labels = obs.Labels{"tier": "memory"}, obs.Labels{"tier": "disk"}
	return append(m, d...)
}

// families is the node's whole /metrics catalogue (METRICS.md tabulates
// the same rows; TestMetricsCatalogue holds the two equal). Building it
// creates the node's histograms, so only a node with telemetry has them.
func (o *nodeObs) families(n *Node, mem *cache.ShardedStore) []obs.Family {
	st, disk := n.store, n.blobStore
	tier := func(f func(cache.TierCounters) int64) []obs.Series {
		return gauge(func() int64 { return f(st.TierCounters()) })
	}
	var decisions, transfers []obs.Series
	for role := resolve.RoleRequester; role <= resolve.RoleParent; role++ {
		for _, yes := range []bool{true, false} {
			decisions = append(decisions, obs.Series{
				Labels:  obs.Labels{"role": role.String(), "decision": role.Verdict(yes)},
				Counter: &o.decisions[role][verdictIndex(yes)],
			})
		}
	}
	for kind, name := range digestKindNames {
		transfers = append(transfers,
			obs.Series{Labels: obs.Labels{"kind": name, "dir": "served"}, Counter: &o.digestServed[kind]},
			obs.Series{Labels: obs.Labels{"kind": name, "dir": "applied"}, Counter: &o.digestApplied[kind]})
	}
	var kinds []string
	for k := cache.EventInsert; k <= cache.EventPromoteFromDisk; k++ {
		kinds = append(kinds, k.String())
	}
	return []obs.Family{
		{Name: "eac_requests_total", Help: "Requests served, by final outcome.", Series: counters("outcome", outcomeNames[:], o.requests[:])},
		{Name: "eac_bytes_served_total", Help: "Body bytes served to clients, by final outcome.", Series: counters("outcome", outcomeNames[:], o.bytes[:])},
		{Name: "eac_request_duration_seconds", Help: "End-to-end request latency, by final outcome.", Series: histograms("outcome", outcomeNames[:], o.reqDur[:])},
		{Name: "eac_stage_duration_seconds", Help: "Per-stage latency of the request lifecycle.", Series: histograms("stage", stageNames[:], o.stageDur[:])},
		{Name: "eac_inflight_requests", Help: "Requests inside the front door (0 when shedding is disabled).", Series: gauge(func() int { return len(n.inflight) })},
		{Name: "eac_placement_decisions_total", Help: "EA placement decisions, by deciding role and outcome.", Series: decisions},

		{Name: "eac_icp_replies_total", Help: "ICP replies heard across all fan-outs.", Series: counter(&o.icpReplies)},
		{Name: "eac_peer_failures_total", Help: "Failed exchanges with a peer (each also a breaker failure report), by cause.", Series: counters("cause", peerFailureNames[:], o.peerFailures[:])},
		{Name: "eac_fetch_retries_total", Help: "Extra attempts after a failure: the next hit responder, or a repeated upstream fetch.", Series: counter(&o.retries)},
		{Name: "eac_fallbacks_total", Help: "Requests that left the cooperative path for the parent/origin, or a broken parent for the origin.", Series: counter(&o.fallbacks)},
		{Name: "eac_breaker_transitions_total", Help: "Peer breakers opening (peer marked dead) and closing (a dead peer answered again).", Series: counters("transition", breakerNames[:], o.breaker[:])},
		{Name: "eac_wire_clamps_total", Help: "Malformed piggybacked headers clamped or dropped instead of trusted.", Series: counters("header", clampNames[:], o.clamps[:])},
		{Name: "eac_peer_breaker_state", Help: "Breaker state of each current member: 0 healthy, 1 suspect, 2 dead.", Collect: n.peerStates},

		{Name: "eac_digest_transfers_total", Help: "Digest transfers, by kind (full filter vs generation delta) and direction.", Series: transfers},
		{Name: "eac_digest_bytes_total", Help: "Digest body bytes served, by transfer kind.", Series: counters("kind", digestKindNames[:], o.digestBytes[:])},
		{Name: "eac_digest_rebuild_escapes_total", Help: "Full-scan digest rebuilds via the counter-saturation escape hatch (steady state: 0).", Series: counter(&o.digestRebuilds)},
		{Name: "eac_digest_stale_served_total", Help: "Lookups answered from a stale peer digest while its refresh was in flight.", Series: counter(&o.digestStale)},

		{Name: "eac_cache_events_total", Help: "Cache mutations by kind, across both tiers (a disk-tier exit counts under evict or remove).", Series: counters("kind", kinds, o.events[cache.EventInsert:])},
		{Name: "eac_cache_expiration_age_seconds", Help: "Cache expiration age, the EA contention signal (+Inf = no contention yet).", Series: gauge(n.expirationAgeSeconds)},
		{Name: "eac_cache_documents", Help: "Resident documents.", Series: gauge(st.Len)},
		{Name: "eac_cache_bytes", Help: "Resident bytes.", Series: gauge(st.Used)},
		{Name: "eac_cache_evictions", Help: "Documents evicted by the replacement policy.", Series: gauge(st.Evictions)},

		{Name: "eac_tier_documents", Help: "Resident documents, by storage tier.", Series: tiers(mem.Len, disk, (*blob.Store).Len)},
		{Name: "eac_tier_bytes", Help: "Resident bytes, by storage tier.", Series: tiers(mem.Used, disk, (*blob.Store).Used)},
		{Name: "eac_tier_capacity_bytes", Help: "Byte budget, by storage tier.", Series: tiers(mem.Capacity, disk, (*blob.Store).Capacity)},
		{Name: "eac_tier_demotions", Help: "Memory victims moved to the disk tier instead of exiting.", Series: tier(func(c cache.TierCounters) int64 { return c.Demotions })},
		{Name: "eac_tier_demotion_drops", Help: "Memory victims the demotion rule (or a refusing disk tier) dropped.", Series: tier(func(c cache.TierCounters) int64 { return c.DemotionDrops })},
		{Name: "eac_tier_promotions", Help: "Disk hits re-promoted into the memory tier.", Series: tier(func(c cache.TierCounters) int64 { return c.Promotions })},
		{Name: "eac_tier_disk_evictions", Help: "Documents the disk tier evicted (true exits from the node).", Series: tier(func(c cache.TierCounters) int64 { return c.DiskEvictions })},
		{Name: "eac_tier_checksum_failures", Help: "Blobs that failed verification (dropped, the document refetched).", Series: tier(func(c cache.TierCounters) int64 { return c.ChecksumFailures })},

		{Name: "eac_requests_shed_total", Help: "Requests refused at the front door: in-flight bound and queue-wait budget exceeded.", Series: counter(&o.sheds)},
		{Name: "eac_coalesced_followers_total", Help: "Requests served as single-flight followers of a concurrent miss for the same URL.", Series: counter(&o.coalesced)},
		{Name: "eac_coalesce_leader_elections_total", Help: "Single-flight leader elections (initial epoch vs post-failure retry).", Series: counters("kind", electionNames[:], o.elections[:])},
		{Name: "eac_origin_sem_waits_total", Help: "Upstream fetches that found the origin-concurrency semaphore full and queued.", Series: counter(&o.upstreamWaits)},
		{Name: "eac_origin_sem_wait_seconds", Help: "Time contended upstream fetches queued for a slot, won or timed out.", Series: histogram(&o.upstreamWaitDur)},

		{Name: "eac_membership_events_total", Help: "Breaker-driven membership changes (ejections and readmissions).", Series: counters("event", memEventNames[:], o.memEvents[:])},
		{Name: "eac_migration_docs_total", Help: "Documents processed by migration passes, by per-document result.", Series: counters("result", migrateResultNames[:], o.migrations[:])},
		{Name: "eac_migration_bytes_total", Help: "Body bytes transferred by migration handoffs.", Series: counter(&o.migrBytes)},

		{Name: "eac_checkpoints_total", Help: "Completed snapshot+journal-rotation checkpoints.", Series: counter(&o.checkpoints)},
		{Name: "eac_checkpoint_failures_total", Help: "Checkpoints that failed.", Series: counter(&o.checkpointErr)},
	}
}

// peerStates emits eac_peer_breaker_state from the member table as it is
// at the scrape, so a departed peer leaves /metrics with its membership.
func (n *Node) peerStates(emit func(obs.Labels, float64)) {
	n.mem.Lock()
	members, live := n.mem.members, n.mem.live // replaced, never mutated, by every change
	n.mem.Unlock()
	for _, p := range members {
		emit(obs.Labels{"peer": p.HTTP}, float64(live[p.HTTP].state.Load()))
	}
}

func (n *Node) expirationAgeSeconds() float64 {
	if age := n.ExpirationAge(); age != cache.NoContention {
		return age.Seconds()
	}
	return math.Inf(1)
}

// observeRequest records the end-to-end outcome of one Request call.
func (n *Node) observeRequest(res Result, err error, dur time.Duration) {
	if n.cfg.Obs == nil {
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

// auditDecision appends one placement verdict — with the two eq.-5
// expiration-age inputs exactly as the rule saw them — to the node's
// bounded decision log (served by /debug/placement). localAge is always
// the deciding node's own expiration age, peerAge the one piggybacked
// from the other side, whichever role this node played. Unlike traces
// the log is not sampled: every decision of every request is recorded
// (copied into the ring by value, so the record below never leaves the
// stack), because the audit's value is exactness.
func (n *Node) auditDecision(tr *obs.Trace, role resolve.Role, url string, verdict bool, d resolve.Disposition, size int64, localAge, peerAge time.Duration) {
	if n.cfg.Obs == nil || n.cfg.Obs.Placement == nil {
		return
	}
	outcome, reason := d.Outcome()
	n.cfg.Obs.Placement.Record(obs.Decision{
		Time: n.now(), Node: n.cfg.ID, URL: url,
		Role: role.String(), Verdict: role.Verdict(verdict),
		LocalAgeMS: obs.AgeMS(localAge), PeerAgeMS: obs.AgeMS(peerAge),
		SizeBytes: size, Outcome: outcome, Reason: reason,
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
	if tr == nil && n.cfg.Obs == nil {
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
	if n.cfg.Obs != nil {
		n.om.stageDur[st.stage].ObserveDuration(dur)
	}
}
