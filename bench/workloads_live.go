package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"eacache/internal/dist"
	"eacache/internal/metrics"
	"eacache/internal/obs"
)

// liveEnv is a built and warmed live group with the scripts that will be
// run against it.
type liveEnv struct {
	group       *liveGroup
	journalDir  string // set when the group journals
	cat         *catalogue
	scripts     [][]req
	clock       *vclock
	dir         string
	sampleEvery int
}

// close stops the group. Its directory is left for the run to remove at
// the end: ext4 without a journal avoids reusing a recently freed inode
// and scans past every such inode on each create, so deleting one
// set-up's thousands of blobs just before the next set-up creates its
// own would charge that scan to setup_s.
func (e *liveEnv) close() { e.group.close() }

// scriptLen is each client's timed script; a client that outruns it
// starts over, with the virtual clock still advancing.
const scriptLen = 1 << 18

// playOnce runs every script through the group once, one closed-loop
// client per script: the untimed warm-up. Any failed request aborts it.
func playOnce(g *liveGroup, cat *catalogue, clock *vclock, scripts [][]req) error {
	errs := make([]error, len(scripts))
	var wg sync.WaitGroup
	for i, script := range scripts {
		wg.Add(1)
		go func(i int, script []req) {
			defer wg.Done()
			for _, r := range script {
				clock.tick()
				res, err := g.nodes[r.node].Request(cat.urls[r.doc], cat.sizes[r.doc])
				if _, fault := checkResult(res, err, cat.sizes[r.doc]); fault != "" {
					errs[i] = fmt.Errorf("warm-up: %s at node %d: %s", cat.urls[r.doc], r.node, fault)
					return
				}
			}
		}(i, script)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// buildCoopMix is the paper's scenario: four cooperating caches whose
// aggregate capacity equals the catalogue, Zipf 0.8 popularity, entry
// node uniform. Roughly half the requests leave the entry node.
func buildCoopMix(rc runConfig) (*liveEnv, error) {
	const nodes, alpha = 4, 0.8
	warm := 24000
	if rc.quick {
		warm = 2000
	}
	rng := dist.NewRNG(rc.seed)
	cat, err := newCatalogue(rng.Split(), "coop", nodes*nodeMemory)
	if err != nil {
		return nil, err
	}
	env := &liveEnv{cat: cat, clock: newVClock(), sampleEvery: 1}
	c := clientCount()
	warmScripts := make([][]req, c)
	for i := 0; i < c; i++ {
		if warmScripts[i], err = zipfScript(rng.Split(), warm/c, len(cat.urls), nodes, alpha, 0, 1); err != nil {
			return nil, err
		}
		script, err := zipfScript(rng.Split(), scriptLen, len(cat.urls), nodes, alpha, 0, 1)
		if err != nil {
			return nil, err
		}
		env.scripts = append(env.scripts, script)
	}
	if env.group, err = startGroup(groupConfig{nodes: nodes, clock: env.clock, obs: true}); err != nil {
		return nil, err
	}
	if err := playOnce(env.group, cat, env.clock, warmScripts); err != nil {
		env.group.close()
		return nil, err
	}
	return env, nil
}

// buildLocalHot warms each of the four nodes with its own slice of the
// catalogue and then asks each node only for what it still holds: every
// request is a local hit and nothing is evicted. Peers are configured
// but never consulted.
func buildLocalHot(rc runConfig) (*liveEnv, error) {
	const nodes, alpha = 4, 0.8
	const sliceBytes = nodeMemory * 8 / 10
	rng := dist.NewRNG(rc.seed)
	cat, err := newCatalogue(rng.Split(), "hot", nodes*sliceBytes)
	if err != nil {
		return nil, err
	}
	env := &liveEnv{cat: cat, clock: newVClock(), sampleEvery: 16}
	if env.group, err = startGroup(groupConfig{nodes: nodes, clock: env.clock, obs: true}); err != nil {
		return nil, err
	}
	// Document d belongs to node d mod 4. One sequential pass brings each
	// document in through its node (a miss, stored on the way back).
	warm := make([]req, len(cat.urls))
	for d := range warm {
		warm[d] = req{doc: uint32(d), node: uint8(d % nodes)}
	}
	if err := playOnce(env.group, cat, env.clock, [][]req{warm}); err != nil {
		env.group.close()
		return nil, err
	}
	// Capacity is split per shard, so a heavy shard may already have
	// evicted a few documents; the hot set is what is still resident.
	hot := make([][]uint32, nodes)
	for d, url := range cat.urls {
		if n := d % nodes; env.group.nodes[n].Contains(url) {
			hot[n] = append(hot[n], uint32(d))
		}
	}
	zipfs := make([]*dist.Zipf, nodes)
	for n := range zipfs {
		if len(hot[n]) == 0 {
			env.group.close()
			return nil, fmt.Errorf("local_hot: node %d holds nothing after warm-up", n)
		}
		if zipfs[n], err = dist.NewZipf(len(hot[n]), alpha); err != nil {
			env.group.close()
			return nil, err
		}
	}
	for i := 0; i < clientCount(); i++ {
		r := rng.Split()
		script := make([]req, scriptLen)
		for k := range script {
			n := r.Intn(nodes)
			script[k] = req{doc: hot[n][zipfs[n].Rank(r)], node: uint8(n)}
		}
		env.scripts = append(env.scripts, script)
	}
	return env, nil
}

// Disk-spill shape: one node whose 4 MB memory tier sits over a 96 MB
// blob tier, asked for a 24 MB catalogue (6 x memory, 1/4 of the disk).
const (
	spillDisk      = 96 << 20
	spillCatalogue = 24 << 20
	// spillAlpha is flatter than the issue's 0.6: with memory holding a
	// sixth of the bytes, Zipf 0.6 serves about half the hits from memory,
	// which fails the workload's own validity check (disk share >= 0.8).
	spillAlpha = 0.1
)

// buildDiskSpill brings the whole catalogue in once, so that all of it is
// resident in one tier or the other, then lets the script settle which
// sixth of it memory holds. Each client asks for its own share of the
// documents: two requests in flight for one disk-resident document race
// blob.Store.Open against the promotion's unlink, the loser is served
// from the origin and counted as a checksum failure, and a workload must
// be one on which no operation fails.
func buildDiskSpill(rc runConfig) (*liveEnv, error) {
	settle, catalogue := 1000, int64(spillCatalogue)
	if rc.quick {
		settle, catalogue = 200, 2*nodeMemory
	}
	rng := dist.NewRNG(rc.seed)
	cat, err := newCatalogue(rng.Split(), "spill", catalogue)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(rc.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(rc.scratch, "bench-disk-spill-")
	if err != nil {
		return nil, err
	}
	env := &liveEnv{cat: cat, clock: newVClock(), dir: dir, sampleEvery: 1}
	fail := func(err error) (*liveEnv, error) {
		if env.group != nil {
			env.group.close()
		}
		_ = os.RemoveAll(dir)
		return nil, err
	}
	if env.group, err = startGroup(groupConfig{
		nodes: 1, clock: env.clock, obs: true, dir: filepath.Join(dir, "node"), diskCap: spillDisk,
	}); err != nil {
		return fail(err)
	}
	env.journalDir = filepath.Join(dir, "node", env.group.nodes[0].ID(), "journal")
	// Every document comes in once, dealt round-robin to the clients; then
	// a short stretch of the real request mix.
	c := clientCount()
	warm := make([][]req, c)
	for d := range cat.urls {
		warm[d%c] = append(warm[d%c], req{doc: uint32(d)})
	}
	for i := range warm {
		settleScript, err := zipfScript(rng.Split(), settle/c, len(cat.urls), 1, spillAlpha, i, c)
		if err != nil {
			return fail(err)
		}
		warm[i] = append(warm[i], settleScript...)
	}
	if err := playOnce(env.group, cat, env.clock, warm); err != nil {
		return fail(err)
	}
	for i := 0; i < c; i++ {
		script, err := zipfScript(rng.Split(), scriptLen, len(cat.urls), 1, spillAlpha, i, c)
		if err != nil {
			return fail(err)
		}
		env.scripts = append(env.scripts, script)
	}
	return env, nil
}

func runCoopMix(rc runConfig) (*outcome, error)   { return runLive(rc, buildCoopMix) }
func runLocalHot(rc runConfig) (*outcome, error)  { return runLive(rc, buildLocalHot) }
func runDiskSpill(rc runConfig) (*outcome, error) { return runLive(rc, buildDiskSpill) }

// strayTraffic is the per-request rate below which a /proc/net/snmp
// counter reads as "this workload used no sockets": the counters cover
// the whole network namespace, so an unrelated datagram must not fail a
// run. The smoke test runs beside other packages' socket tests and skips
// these checks; the group's own counters are checked always.
const strayTraffic = 0.001

// setupRepeats is how often set-up is run; setup_s is the median.
const setupRepeats = 3

// runLive is the common course of a live workload: set up three times
// (keeping the last group), run the timed phase, and in a traced run
// follow it with a traced phase and the layer probes.
func runLive(rc runConfig, build func(runConfig) (*liveEnv, error)) (*outcome, error) {
	out := newOutcome()
	out.recordEnvironment(rc, clientCount())
	out.infof("closed loop over loopback sockets (not a link); Obs at proxyd's defaults (trace sampling 1 in 8)")

	repeats := setupRepeats
	if rc.quick {
		repeats = 1
	}
	var env *liveEnv
	var setups []float64
	var dirs []string
	defer func() {
		for _, dir := range dirs {
			_ = os.RemoveAll(dir) // "" for a memory-only group: a no-op
		}
	}()
	for i := 0; i < repeats; i++ {
		if env != nil {
			env.close()
		}
		start := time.Now()
		var err error
		if env, err = build(rc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		dirs = append(dirs, env.dir)
	}
	defer env.close()
	out.setMedian("setup_s", setups)

	duration := time.Duration(rc.seconds * float64(time.Second))
	if rc.traced {
		duration /= 2 // the other half is the traced phase
	}
	phase := phaseConfig{
		group: env.group, cat: env.cat, scripts: env.scripts, clock: env.clock,
		duration: duration, sampleEvery: env.sampleEvery,
		journalDir: env.journalDir,
	}
	pr, err := runPhase(phase)
	if err != nil {
		return nil, err
	}
	ps := pr.stats()
	slices := sliceCount(duration)
	out.infof("timed phase %.2fs in %d slices of %.3fs; a speed is the mean of its best %d slices, a count per request the median over slices",
		duration.Seconds(), slices, (duration / time.Duration(slices)).Seconds(), (slices+7)/8)
	reportPhase(out, rc, pr, ps)

	if rc.traced {
		if err := tracedHalf(out, rc, env, phase, ps); err != nil {
			return nil, err
		}
	}
	reportPeakRSS(out)
	return out, nil
}

// reportPhase turns the untraced timed phase into the end-to-end metrics,
// the class latencies, the counter ratios and the workload's validity
// checks.
func reportPhase(out *outcome, rc runConfig, pr *phaseResult, ps *phaseStats) {
	out.attempted, out.failed = ps.attempted, ps.failed
	out.check(ps.failed == 0, "%d of %d requests failed; first: %s", ps.failed, ps.attempted, ps.firstError)
	for name, why := range ps.unreadable {
		out.unreadable(name, why)
	}

	out.setUndisturbed("throughput_rps", ps.throughput, true)
	if _, bad := ps.unreadable["cpu_us_per_req"]; !bad {
		out.setUndisturbed("cpu_us_per_req", ps.cpuPerReq, false)
		reportUserCPU(out, ps.userCPU, ps.allCPU, float64(ps.attempted))
	}
	out.setMedian("allocs_per_req", ps.allocsPerReq)
	out.setMedian("alloc_kb_per_req", ps.allocKBPerReq)

	var served, bytesAll, latAll int64
	for k := 0; k < classCount; k++ {
		served += ps.counts[k]
		bytesAll += ps.bytes[k]
		latAll += ps.latSum[k]
	}
	if served == 0 {
		out.check(false, "no request was served")
		return
	}
	out.set("hit_rate", float64(ps.counts[classLocal]+ps.counts[classRemote])/float64(ps.attempted))
	out.set("byte_hit_rate", float64(ps.bytes[classLocal]+ps.bytes[classRemote])/float64(bytesAll))
	out.set("error_rate", float64(ps.failed)/float64(ps.attempted))
	out.infof("realised hit mix: local %.4f, remote %.4f, miss %.4f of %d requests",
		float64(ps.counts[classLocal])/float64(served), float64(ps.counts[classRemote])/float64(served),
		float64(ps.counts[classMiss])/float64(served), served)

	for cl, name := range [classCount]string{"lhl_p50_us", "rhl_p50_us", "ml_p50_us"} {
		if len(ps.classP50[cl]) == 0 {
			out.na(name, "no request of this class")
			continue
		}
		out.setUndisturbed(name, ps.classP50[cl], false)
	}
	out.setMedian("lat_p99_us", ps.p99)
	out.set("remote_miss_time_share", float64(ps.latSum[classRemote]+ps.latSum[classMiss])/float64(latAll))
	snap := metrics.CountersSnapshot{
		Requests: served, LocalHits: ps.counts[classLocal], RemoteHits: ps.counts[classRemote], Misses: ps.counts[classMiss],
	}
	out.set("est_latency_ms", float64(metrics.PaperLatencies.EstimatedAverageLatency(snap))/1e6)

	reqs := float64(ps.attempted)
	reportProcess(out, pr.segStart, pr.segEnd, reqs)

	// Counter ratios over the whole phase.
	all := reqs
	delta := func(series string) float64 { return pr.after.series[series] - pr.before.series[series] }
	out.set("cache.insertions_per_req", delta(`eac_cache_events_total{kind="insert"}`)/all)
	out.set("cache.evictions_per_req", delta(`eac_cache_events_total{kind="evict"}`)/all)
	out.set("cache.demotions_per_req", delta("eac_tier_demotions")/all)
	out.set("cache.promotions_per_req", delta("eac_tier_promotions")/all)
	out.set("cache.demotion_drops_per_req", delta("eac_tier_demotion_drops")/all)
	if local := ps.counts[classLocal]; local > 0 {
		out.set("cache.disk_hit_share", delta("eac_tier_promotions")/float64(local))
	} else {
		out.na("cache.disk_hit_share", "no local hit")
	}
	accepts := delta(`eac_placement_decisions_total{decision="accept",role="requester"}`)
	if remote := ps.counts[classRemote]; remote > 0 {
		// Requester verdicts cover origin fetches too (always accept), so
		// the store share among remote hits is what is left after them.
		out.set("core.requester_store_share", (accepts-float64(ps.counts[classMiss]))/float64(remote))
	} else {
		out.na("core.requester_store_share", "no remote hit")
	}
	stageRuns := func(stage string) float64 {
		return delta(`eac_stage_duration_seconds_count{stage="` + stage + `"}`)
	}
	out.set("icp.fanouts_per_req", stageRuns(obs.StageICPFanout)/all)
	out.set("netnode.peer_fetches_per_req", stageRuns(obs.StageRemoteFetch)/all)
	out.set("resolve.coalesced_per_req", float64(pr.after.robust.CoalescedFollowers-pr.before.robust.CoalescedFollowers)/all)
	out.set("netnode.origin_fetches_per_req", float64(pr.after.originFetches-pr.before.originFetches)/all)
	out.set("netnode.retries_per_req", float64(pr.after.robust.Retries-pr.before.robust.Retries)/all)
	out.set("netnode.fallbacks_per_req", float64(pr.after.robust.Fallbacks-pr.before.robust.Fallbacks)/all)
	out.set("netnode.sheds_per_req", float64(pr.after.robust.Sheds-pr.before.robust.Sheds)/all)
	out.set("blob.checksum_failures", pr.after.series["eac_tier_checksum_failures"])
	if rc.workload == "disk_spill" {
		out.set("persist.journal_bytes_per_req", float64(pr.journalGrowth)/reqs)
	} else {
		out.na("persist.journal_bytes_per_req", "no journal on this workload")
	}

	for _, tier := range []string{"memory", "disk"} {
		used := pr.after.series[`eac_tier_bytes{tier="`+tier+`"}`]
		capacity := pr.after.series[`eac_tier_capacity_bytes{tier="`+tier+`"}`]
		out.check(used <= capacity, "%s tier holds %.0f bytes, over its capacity %.0f", tier, used, capacity)
	}
	out.check(pr.after.series["eac_tier_checksum_failures"] == 0, "%.0f blob checksum failures", pr.after.series["eac_tier_checksum_failures"])

	for _, name := range []string{
		"sim.replay_ns_per_req", "sim.allocs_per_req", "sim.alloc_bytes_per_req", "trace.generate_s",
		"sim.ea_minus_adhoc_hit_rate_min", "sim.replication_copies_per_doc",
	} {
		out.na(name, "sim_bu only")
	}

	// Each workload does what it was chosen for, shown from its own output.
	switch rc.workload {
	case "coop_mix":
		if !rc.quick {
			out.check(out.values["remote_miss_time_share"] >= 0.9, "coop_mix spends %.3f of summed latency in remote hits and misses, want >= 0.9", out.values["remote_miss_time_share"])
			out.check(out.values["netnode.tcp_opens_per_req"] > 0.3, "coop_mix opens %.3f TCP connections per request, want > 0.3", out.values["netnode.tcp_opens_per_req"])
		}
	case "local_hot":
		out.check(ps.counts[classLocal] == served, "local_hot served %d of %d requests locally, want all", ps.counts[classLocal], served)
		out.check(delta(`eac_cache_events_total{kind="evict"}`) == 0, "local_hot evicted %.0f documents, want none", delta(`eac_cache_events_total{kind="evict"}`))
		out.check(stageRuns(obs.StageICPFanout) == 0 && stageRuns(obs.StageRemoteFetch) == 0 && pr.after.originFetches == pr.before.originFetches,
			"local_hot ran %.0f ICP fan-outs, %.0f peer fetches and %d origin fetches, want none",
			stageRuns(obs.StageICPFanout), stageRuns(obs.StageRemoteFetch), pr.after.originFetches-pr.before.originFetches)
		if !rc.quick {
			out.check(out.values["icp.datagrams_per_req"] < strayTraffic, "local_hot sent %.4f datagrams per request, want 0", out.values["icp.datagrams_per_req"])
			out.check(out.values["netnode.tcp_opens_per_req"] < strayTraffic, "local_hot opened %.4f TCP connections per request, want 0", out.values["netnode.tcp_opens_per_req"])
		}
	case "disk_spill":
		out.check(stageRuns(obs.StageICPFanout) == 0, "disk_spill ran %.0f ICP fan-outs, want none", stageRuns(obs.StageICPFanout))
		if !rc.quick {
			out.check(out.values["icp.datagrams_per_req"] < strayTraffic, "disk_spill sent %.4f datagrams per request, want 0", out.values["icp.datagrams_per_req"])
			out.check(out.values["hit_rate"] >= 0.99, "disk_spill hit rate %.4f, want >= 0.99", out.values["hit_rate"])
			out.check(out.values["cache.disk_hit_share"] >= 0.8, "disk_spill serves %.3f of local hits from disk, want >= 0.8", out.values["cache.disk_hit_share"])
		}
	}
}

// reportUserCPU reports user-mode CPU time per request over the whole
// timed phase. It is the one speed the sandbox's filesystem cannot move:
// what ext4 charges for creating a file, which on disk_spill varies
// fivefold with the directory the checkout landed in, is system time.
func reportUserCPU(out *outcome, user, all time.Duration, reqs float64) {
	out.set("user_cpu_us_per_req", float64(user)/1e3/reqs)
	out.infof("process CPU over the timed phase: %.3fs, %.1f%% of it in user mode", all.Seconds(), float64(user)/float64(all)*100)
}
