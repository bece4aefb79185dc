package main

import (
	"fmt"
	"time"

	"eacache/internal/core"
	"eacache/internal/group"
	"eacache/internal/metrics"
	"eacache/internal/sim"
	"eacache/internal/trace"
)

// simSizes are the aggregate cache sizes of the paper's figures.
var simSizes = []int64{100 << 10, 1 << 20, 10 << 20, 100 << 20, 1 << 30}

// simHeadline is the configuration whose hit rates the workload reports:
// EA at 10 MB aggregate.
const simHeadline = 10 << 20

// replay is one sim.Run and what it cost.
type replay struct {
	scheme    string
	aggregate int64
	counters  metrics.CountersSnapshot
	estimate  time.Duration
	copies    float64
	wall      time.Duration
	cpu       time.Duration // process user + system time; valid when cpuErr is nil
	cpuErr    error
}

// simPass replays the trace through a fresh four-cache distributed LRU
// group at every size under both schemes, timing each replay.
func simPass(records []trace.Record, spans *spanLog) ([]replay, error) {
	var pass []replay
	for _, aggregate := range simSizes {
		for _, scheme := range []core.Scheme{core.EA{}, core.AdHoc{}} {
			before, cpuErr := readRusage()
			start := time.Now()
			g, err := group.New(group.Config{Caches: 4, AggregateBytes: aggregate, Scheme: scheme})
			if err != nil {
				return nil, err
			}
			rep, err := sim.Run(g, records, sim.Config{})
			if err != nil {
				return nil, err
			}
			end := time.Now()
			after, err := readRusage()
			if cpuErr == nil {
				cpuErr = err
			}
			if spans != nil {
				spans.addProbe(fmt.Sprintf("sim.Run %s %s", scheme.Name(), sim.FormatBytes(aggregate)), len(records), start, end)
			}
			pass = append(pass, replay{
				scheme: scheme.Name(), aggregate: aggregate, counters: rep.Group,
				estimate: rep.EstimatedLatency, copies: g.Replication().MeanCopies(), wall: end.Sub(start),
				cpu: after.cpu() - before.cpu(), cpuErr: cpuErr,
			})
		}
	}
	return pass, nil
}

// generateTrace is sim_bu's set-up: the seeded BU-like trace, cleaned and
// sorted as the paper prepares its logs.
func generateTrace(rc runConfig) ([]trace.Record, error) {
	cfg := trace.BULike()
	if rc.quick {
		cfg = cfg.Scaled(0.01)
	}
	cfg.Seed = rc.seed
	records, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)
	trace.SortByTime(records)
	return records, nil
}

// simPhase runs passes until duration has elapsed (at least two, so that
// the determinism check has something to compare), sampling the process
// counters at every pass boundary.
func simPhase(records []trace.Record, duration time.Duration, spans *spanLog) (passes [][]replay, boundaries []procSample, err error) {
	boundaries = append(boundaries, takeProcSample())
	for start := time.Now(); len(passes) < 2 || time.Since(start) < duration; {
		pass, err := simPass(records, spans)
		if err != nil {
			return nil, nil, err
		}
		passes = append(passes, pass)
		boundaries = append(boundaries, takeProcSample())
	}
	return passes, boundaries, nil
}

func runSimBU(rc runConfig) (*outcome, error) {
	out := newOutcome()
	out.recordEnvironment(rc, 1)
	out.infof("single-threaded replay through in-memory transports: no sockets, no disk")

	repeats := setupRepeats
	if rc.quick {
		repeats = 1
	}
	var records []trace.Record
	var setups []float64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		var err error
		if records, err = generateTrace(rc); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	out.setMedian("setup_s", setups)
	out.setMedian("trace.generate_s", setups)

	duration := time.Duration(rc.seconds * float64(time.Second))
	if rc.traced {
		duration /= 2
	}
	passes, boundaries, err := simPhase(records, duration, nil)
	if err != nil {
		return nil, err
	}
	replays := len(passes[0])
	perPass := float64(len(records) * replays)
	out.infof("timed phase: %d passes of %d replays x %d requests; one replay is one slice, and a speed adds up each replay's best pass",
		len(passes), replays, len(records))
	out.attempted = int64(len(passes)) * int64(perPass)

	// A replay cannot be cut into slices, and the ten replays of a pass
	// cost different amounts, so the undisturbed pass is put together
	// from each replay's best showing over the passes.
	var bestWall, bestCPU float64 // seconds per pass
	var cpuErr error
	for i := 0; i < replays; i++ {
		var wall, cpu []float64
		for _, pass := range passes {
			wall = append(wall, pass[i].wall.Seconds())
			cpu = append(cpu, pass[i].cpu.Seconds())
			if cpuErr == nil {
				cpuErr = pass[i].cpuErr
			}
		}
		bestWall += undisturbed(wall, false)
		bestCPU += undisturbed(cpu, false)
	}
	var throughput, cpuPerReq, allocsPerReq, allocKBPerReq []float64
	var userCPU, allCPU time.Duration
	for k := range passes {
		a, b := boundaries[k], boundaries[k+1]
		throughput = append(throughput, perPass/b.wall.Sub(a.wall).Seconds())
		cpuPerReq = append(cpuPerReq, float64(b.ru.cpu()-a.ru.cpu())/1e3/perPass)
		userCPU += b.ru.user - a.ru.user
		allCPU += b.ru.cpu() - a.ru.cpu()
		allocsPerReq = append(allocsPerReq, float64(b.mem.Mallocs-a.mem.Mallocs)/perPass)
		allocKBPerReq = append(allocKBPerReq, float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1024/perPass)
	}
	out.set("throughput_rps", perPass/bestWall)
	out.spread["throughput_rps"] = quartilesOf(throughput)
	out.set("sim.replay_ns_per_req", bestWall*1e9/perPass)
	if cpuErr == nil {
		out.set("cpu_us_per_req", bestCPU*1e6/perPass)
		out.spread["cpu_us_per_req"] = quartilesOf(cpuPerReq)
		reportUserCPU(out, userCPU, allCPU, float64(out.attempted))
	} else {
		out.unreadable("cpu_us_per_req", cpuErr.Error())
		out.unreadable("user_cpu_us_per_req", cpuErr.Error())
	}
	out.setMedian("allocs_per_req", allocsPerReq)
	out.setMedian("alloc_kb_per_req", allocKBPerReq)
	out.set("sim.allocs_per_req", out.values["allocs_per_req"])
	out.set("sim.alloc_bytes_per_req", out.values["alloc_kb_per_req"]*1024)

	// The simulator is deterministic: every pass must count exactly what
	// the first one counted.
	for k, pass := range passes[1:] {
		for i, r := range pass {
			if r.counters != passes[0][i].counters {
				out.check(false, "pass %d %s %s counted %+v, pass 0 counted %+v", k+1, r.scheme, sim.FormatBytes(r.aggregate), r.counters, passes[0][i].counters)
			}
		}
	}
	// The paper's claim: EA is never worse than ad-hoc.
	gapMin := 1.0
	for i := 0; i < len(passes[0]); i += 2 {
		ea, adhoc := passes[0][i], passes[0][i+1]
		if gap := ea.counters.HitRate() - adhoc.counters.HitRate(); gap < gapMin {
			gapMin = gap
		}
		if ea.aggregate == simHeadline {
			out.set("hit_rate", ea.counters.HitRate())
			out.set("byte_hit_rate", ea.counters.ByteHitRate())
			out.set("est_latency_ms", float64(ea.estimate)/1e6)
			out.set("sim.replication_copies_per_doc", ea.copies)
			out.infof("EA at %s: hit mix local %.4f, remote %.4f, miss %.4f", sim.FormatBytes(simHeadline),
				ea.counters.LocalHitRate(), ea.counters.RemoteHitRate(), ea.counters.MissRate())
		}
	}
	out.set("sim.ea_minus_adhoc_hit_rate_min", gapMin)
	// On the scaled-down smoke trace the claim need not hold.
	out.check(rc.quick || gapMin >= 0, "EA hit rate is %.5f below ad-hoc at some size", -gapMin)
	out.set("error_rate", 0)

	reportProcess(out, boundaries[:len(passes)], boundaries[1:], float64(out.attempted))
	if _, unread := out.notes["icp.datagrams_per_req"]; !unread && !rc.quick {
		out.check(out.values["icp.datagrams_per_req"] < strayTraffic && out.values["netnode.tcp_opens_per_req"] < strayTraffic,
			"sim_bu used sockets: %.4f datagrams and %.4f TCP opens per request", out.values["icp.datagrams_per_req"], out.values["netnode.tcp_opens_per_req"])
	}
	for _, m := range perLayer {
		if _, ok := out.values[m.name]; !ok && liveOnly(m.name) {
			out.na(m.name, "live workloads only")
		}
	}

	if rc.traced {
		spans := newSpanLog()
		tracedPasses, tracedBounds, err := simPhase(records, duration, spans)
		if err != nil {
			return nil, err
		}
		out.attempted += int64(len(tracedPasses)) * int64(perPass)
		var traced []float64
		for k := range tracedPasses {
			traced = append(traced, perPass/tracedBounds[k+1].wall.Sub(tracedBounds[k].wall).Seconds())
		}
		plain := undisturbed(throughput, true)
		out.set("bench.trace_overhead_pct", (plain-undisturbed(traced, true))/plain*100)
		urls, sizes := traceDocuments(records, 4096)
		pc, err := runProbes(out, rc, spans, urls, sizes)
		if err != nil {
			return nil, err
		}
		reconcile(out, rc.workload, pc)
		if err := writeSpans(out, rc, spans); err != nil {
			return nil, err
		}
	}
	reportPeakRSS(out)
	return out, nil
}

// liveOnly reports whether a per-layer metric is read off a live group
// and so has nothing to say about the simulator.
func liveOnly(name string) bool {
	switch name {
	case "lhl_p50_us", "rhl_p50_us", "ml_p50_us", "lat_p99_us", "remote_miss_time_share",
		"cache.insertions_per_req", "cache.evictions_per_req", "cache.demotions_per_req",
		"cache.promotions_per_req", "cache.demotion_drops_per_req", "cache.disk_hit_share",
		"core.requester_store_share", "resolve.coalesced_per_req", "icp.fanouts_per_req", "netnode.peer_fetches_per_req",
		"netnode.origin_fetches_per_req", "netnode.retries_per_req", "netnode.fallbacks_per_req", "netnode.sheds_per_req",
		"persist.journal_bytes_per_req", "blob.checksum_failures",
		"stage.local_lookup_us", "stage.icp_fanout_us", "stage.remote_fetch_us", "stage.origin_fetch_us", "stage.serve_remote_us":
		return true
	}
	return false
}

// traceDocuments returns the first n distinct documents of the trace, the
// probes' inputs on sim_bu. Sizes above the live document cap are clipped
// so that every probe document fits a 4 MB node's shard.
func traceDocuments(records []trace.Record, n int) (urls []string, sizes []int64) {
	seen := map[string]bool{}
	for _, r := range records {
		if len(urls) == n {
			break
		}
		if seen[r.URL] {
			continue
		}
		seen[r.URL] = true
		size := r.Size
		if size > maxDocSize {
			size = maxDocSize
		}
		urls = append(urls, r.URL)
		sizes = append(sizes, size)
	}
	return urls, sizes
}
