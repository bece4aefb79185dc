package main

import (
	"fmt"
	"os"
	"path/filepath"

	"eacache/internal/obs"
)

// tracedHalf is the second half of a traced live run: the same closed
// loop with Obs sampling raised to 1 (so the node's own stage timers and
// trace ring cover every request) and a root span recorded per request,
// then the layer probes, the reconciliation of probes against the class
// latencies of the untraced half, and the span file.
func tracedHalf(out *outcome, rc runConfig, env *liveEnv, phase phaseConfig, untraced *phaseStats) error {
	spans := newSpanLog()
	env.group.setSampling(1)
	phase.spanCap = spanCapPerClient
	pr, err := runPhase(phase)
	if err != nil {
		return err
	}
	ps := pr.stats()
	out.attempted += ps.attempted
	out.failed += ps.failed
	out.check(ps.failed == 0, "traced phase: %d of %d requests failed; first: %s", ps.failed, ps.attempted, ps.firstError)
	spans.addRequests(pr.start, pr.clients)

	plain, traced := undisturbed(untraced.throughput, true), undisturbed(ps.throughput, true)
	out.set("bench.trace_overhead_pct", (plain-traced)/plain*100)
	out.infof("traced phase: %.0f req/s against %.0f untraced", traced, plain)

	// Stage means from the nodes' own eac_stage_duration_seconds
	// histograms: sum / count over the traced phase.
	for metric, stage := range map[string]string{
		"stage.local_lookup_us": obs.StageLocalLookup, "stage.icp_fanout_us": obs.StageICPFanout,
		"stage.remote_fetch_us": obs.StageRemoteFetch, "stage.origin_fetch_us": obs.StageOriginFetch,
	} {
		label := `{stage="` + stage + `"}`
		sum := pr.after.series["eac_stage_duration_seconds_sum"+label] - pr.before.series["eac_stage_duration_seconds_sum"+label]
		count := pr.after.series["eac_stage_duration_seconds_count"+label] - pr.before.series["eac_stage_duration_seconds_count"+label]
		if _, ok := pr.after.series["eac_stage_duration_seconds_count"+label]; !ok {
			out.unreadable(metric, "family eac_stage_duration_seconds"+label+" absent from the registry")
		} else if count == 0 {
			out.na(metric, "stage never ran")
		} else {
			out.set(metric, sum/count*1e6)
		}
	}
	// serve-remote has no histogram; the responders' trace rings hold its
	// spans (the last DefaultTraceCapacity per node).
	var serveUS, serveN float64
	for _, tel := range env.group.tels {
		for _, tr := range tel.Traces.Snapshot() {
			for _, sp := range tr.Spans {
				if sp.Stage == obs.StageServe {
					serveUS += float64(sp.DurUS)
					serveN++
				}
			}
		}
	}
	if serveN == 0 {
		out.na("stage.serve_remote_us", "no serve-remote span in the trace rings")
	} else {
		out.set("stage.serve_remote_us", serveUS/serveN)
	}

	pc, err := runProbes(out, rc, spans, env.cat.urls, env.cat.sizes)
	if err != nil {
		return err
	}
	reconcile(out, rc.workload, pc)
	return writeSpans(out, rc, spans)
}

// runProbes runs the probe pass in a scratch directory of its own.
func runProbes(out *outcome, rc runConfig, spans *spanLog, urls []string, sizes []int64) (probeCosts, error) {
	if err := os.MkdirAll(rc.scratch, 0o755); err != nil {
		return probeCosts{}, err
	}
	dir, err := os.MkdirTemp(rc.scratch, "bench-probes-")
	if err != nil {
		return probeCosts{}, err
	}
	defer os.RemoveAll(dir)
	p := &prober{out: out, spans: spans, quick: rc.quick, urls: urls, sizes: sizes, dir: dir}
	return p.runAll()
}

func writeSpans(out *outcome, rc runConfig, spans *spanLog) error {
	path, err := spans.write(filepath.Join(rc.scratch, "bench"), rc.workload, rc.seed)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	out.infof("%d request spans and %d probe spans written to %s", len(spans.requests), len(spans.probes), path)
	return nil
}

// reconcile adds up the probe medians along each class's path and
// divides by the class's end-to-end median. A coverage far from 1 says a
// cost is unaccounted for: a goroutine hand-off, waiting, or a layer
// nobody probes. Probe medians are ns, class medians µs.
func reconcile(out *outcome, workload string, pc probeCosts) {
	cover := func(metric, class string, applies bool, pathNS float64) {
		classUS, measured := out.values[class]
		if _, noted := out.notes[class]; !applies || !measured || noted || classUS <= 0 {
			out.na(metric, "class not measured on this workload")
			return
		}
		out.set(metric, pathNS/(classUS*1e3))
	}
	coop := workload == "coop_mix"
	cover("reconcile.lhl_coverage", "lhl_p50_us", coop || workload == "local_hot",
		pc.engineLocal+pc.getHit)
	// peer_fetch and origin_fetch already contain the dial.
	cover("reconcile.rhl_coverage", "rhl_p50_us", coop,
		pc.engineRemote+pc.getMiss+pc.queryHit+pc.peerFetch+pc.decide+pc.putEvict)
	cover("reconcile.ml_coverage", "ml_p50_us", coop,
		pc.engineRemote+pc.getMiss+pc.queryAllMiss+pc.originFetch+pc.putEvict)
	cover("reconcile.disk_hit_coverage", "lhl_p50_us", workload == "disk_spill",
		pc.engineLocal+pc.tieredDiskGet+pc.append)
}
