// Command loadgen is an open-loop load generator for a live cooperative
// cache group: it builds an origin plus an n-node group on loopback (all
// peer and origin traffic crosses real sockets), then fires requests at
// a configured target RPS with Poisson arrivals and Zipf document
// popularity and measures the latency tail.
//
// Open-loop means arrivals never wait for completions: each request's
// latency is measured from its *scheduled* arrival time, so queueing
// delay under overload is charged to the server rather than silently
// absorbed by a slowed-down generator (the coordinated-omission trap of
// closed-loop harnesses). With -saturate the target RPS doubles per step
// until the group stops keeping up; the highest achieved throughput is
// reported as the saturation RPS.
//
// Results — p50/p99/p999 latency, achieved and saturation throughput,
// shed and coalesce rates — are written as a JSON artifact
// (artifacts/loadgen.json unless -out says otherwise).
//
// Usage:
//
//	loadgen -nodes 2 -rps 200 -duration 5s -out artifacts/loadgen.json
//	loadgen -saturate -rps 500 -duration 3s
//	loadgen -rps 50 -duration 2s -check   # CI smoke: any shed/error fails
//	loadgen -locate hash -churn -check    # membership cycle under load;
//	                                      # transition-window errors fail
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/dist"
	"eacache/internal/metrics"
	"eacache/internal/netnode"
	"eacache/internal/obs"
	"eacache/internal/resolve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type config struct {
	nodes      int
	rps        float64
	duration   time.Duration
	docs       int
	zipfAlpha  float64
	meanSize   int64
	seed       uint64
	scheme     core.Scheme
	location   resolve.Location
	capacity   int64
	originConc int
	inflight   int
	saturate   bool
	maxSteps   int
	check      bool
	churn      bool
	obs        bool
	out        string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stdout)
	var (
		nodes      = fs.Int("nodes", 2, "group size")
		rps        = fs.Float64("rps", 200, "target arrival rate, requests/second")
		duration   = fs.Duration("duration", 5*time.Second, "how long each load step runs")
		docs       = fs.Int("docs", 500, "catalogue size (distinct URLs)")
		zipfAlpha  = fs.Float64("zipf", 0.8, "Zipf popularity skew")
		meanSize   = fs.Int64("mean-size", 8<<10, "mean document size in bytes")
		seed       = fs.Uint64("seed", 42, "workload RNG seed")
		schemeName = fs.String("scheme", "ea", `placement scheme: "adhoc", "ea" or "never"`)
		locate     = fs.String("locate", "icp", `document location mechanism: "icp", "digest" or "hash"`)
		capacity   = fs.Int64("capacity", 4<<20, "per-node cache capacity in bytes")
		originConc = fs.Int("origin-concurrency", netnode.DefaultOriginConcurrency, "per-node bound on simultaneous origin fetches")
		inflight   = fs.Int("max-inflight", 1024, "per-node in-flight bound before the front door sheds; 0 disables shedding")
		saturate   = fs.Bool("saturate", false, "ramp RPS (doubling per step) until the group stops keeping up")
		maxSteps   = fs.Int("max-steps", 6, "step cap for -saturate")
		check      = fs.Bool("check", false, "exit non-zero on any shed or failed request (CI smoke at unsaturated load)")
		churn      = fs.Bool("churn", false, "run a join->drain->leave membership cycle inside each step; errors completing inside a transition window are reported separately and fail -check")
		obsFlag    = fs.Bool("obs", false, "wire full telemetry into every node (trace every request) and record the trace IDs of the slowest (>=p99) requests in the artifact, for post-hoc eacctl stitching")
		out        = fs.String("out", "artifacts/loadgen.json", "output JSON artifact path")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *nodes < 1 {
		return fmt.Errorf("-nodes must be positive, got %d", *nodes)
	}
	if *rps <= 0 {
		return fmt.Errorf("-rps must be positive, got %v", *rps)
	}
	if *duration <= 0 {
		return fmt.Errorf("-duration must be positive, got %v", *duration)
	}
	if *docs < 1 {
		return fmt.Errorf("-docs must be positive, got %d", *docs)
	}
	scheme, ok := core.New(*schemeName)
	if !ok {
		return fmt.Errorf("unknown scheme %q", *schemeName)
	}
	loc, err := resolve.ParseLocation(*locate)
	if err != nil {
		return err
	}
	cfg := config{
		nodes: *nodes, rps: *rps, duration: *duration,
		docs: *docs, zipfAlpha: *zipfAlpha, meanSize: *meanSize, seed: *seed,
		scheme: scheme, location: loc, capacity: *capacity,
		originConc: *originConc, inflight: *inflight,
		saturate: *saturate, maxSteps: *maxSteps, check: *check, churn: *churn,
		obs: *obsFlag, out: *out,
	}
	return runLoad(cfg, stdout)
}

// group is the in-process live group under test: entry is Node.Request,
// and everything behind it — ICP fan-outs, peer fetches, origin misses —
// crosses real loopback sockets.
type group struct {
	origin *netnode.OriginServer
	nodes  []*netnode.Node
}

// startNode builds one store-backed cache node for the group; the
// caller wires its peer set.
func startNode(cfg config, id string, originAddr string) (*netnode.Node, error) {
	store, err := cache.NewSharded(cache.ShardedConfig{
		Capacity:         cfg.capacity,
		ExpirationWindow: cache.DefaultExpirationWindow,
	})
	if err != nil {
		return nil, err
	}
	// -obs traces every request (no sampling) so any slow request's
	// trace ID in the artifact is guaranteed to have records behind it —
	// the cost being measured is the fully-instrumented path.
	var tel *obs.Telemetry
	if cfg.obs {
		tel = obs.New(id, 4096)
		tel.SetTraceSampling(1)
	}
	return netnode.New(netnode.Config{
		ID:                id,
		ICPAddr:           "127.0.0.1:0",
		HTTPAddr:          "127.0.0.1:0",
		Store:             store,
		Scheme:            cfg.scheme,
		OriginAddr:        originAddr,
		Location:          cfg.location,
		HashName:          id,
		OriginConcurrency: cfg.originConc,
		MaxInflight:       cfg.inflight,
		Obs:               tel,
	})
}

func startGroup(cfg config) (*group, error) {
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	g := &group{origin: origin}
	for i := 0; i < cfg.nodes; i++ {
		node, err := startNode(cfg, fmt.Sprintf("load-%d", i), origin.Addr())
		if err != nil {
			g.close()
			return nil, err
		}
		g.nodes = append(g.nodes, node)
	}
	for i, nd := range g.nodes {
		var peers []netnode.Peer
		for j, other := range g.nodes {
			if i == j {
				continue
			}
			peers = append(peers, netnode.Peer{
				ICP: other.ICPAddr(), HTTP: other.HTTPAddr(), Name: other.ID(),
			})
		}
		nd.SetPeers(peers)
	}
	return g, nil
}

func (g *group) close() {
	for _, nd := range g.nodes {
		_ = nd.Close()
	}
	_ = g.origin.Close()
}

// robustTotals sums the overload counters across the group.
func (g *group) robustTotals() (sheds, coalesced int64) {
	for _, nd := range g.nodes {
		rb := nd.Robustness()
		sheds += rb.Sheds
		coalesced += rb.CoalescedFollowers
	}
	return sheds, coalesced
}

// transition is the wall-clock window of one membership operation.
// Requests completing inside [From, To+churnSettle) are attributed to
// the transition, so a -check failure can say whether the errors came
// from churn or from plain overload.
type transition struct {
	What     string
	From, To time.Time
}

// churnSettle pads the end of each transition window: a request routed
// under the old peer view can fail shortly after the swap completes.
const churnSettle = 200 * time.Millisecond

func inTransition(t time.Time, windows []transition) bool {
	for _, w := range windows {
		if !t.Before(w.From) && t.Before(w.To.Add(churnSettle)) {
			return true
		}
	}
	return false
}

// churnCycle runs one join->drain->leave cycle against the live group
// while a load step is in flight: a spare node joins at one third of
// the step, serves as a member for a third, then drains its copies and
// leaves. The returned windows bracket the two membership swaps.
func churnCycle(g *group, cfg config, stepDur time.Duration) ([]transition, error) {
	time.Sleep(stepDur / 3)
	joiner, err := startNode(cfg, "load-joiner", g.origin.Addr())
	if err != nil {
		return nil, fmt.Errorf("churn: start joiner: %w", err)
	}
	defer joiner.Close()

	var peers []netnode.Peer
	for _, nd := range g.nodes {
		peers = append(peers, netnode.Peer{ICP: nd.ICPAddr(), HTTP: nd.HTTPAddr(), Name: nd.ID()})
	}
	join := transition{What: "join", From: time.Now()}
	joiner.SetPeers(peers)
	self := netnode.Peer{ICP: joiner.ICPAddr(), HTTP: joiner.HTTPAddr(), Name: joiner.ID()}
	for _, nd := range g.nodes {
		if err := nd.AddPeer(self); err != nil {
			return nil, fmt.Errorf("churn: join %s: %w", nd.ID(), err)
		}
	}
	join.To = time.Now()

	time.Sleep(stepDur / 3)
	leave := transition{What: "drain+leave", From: time.Now()}
	if rep := joiner.DrainHandoff(); rep.Failed > 0 {
		return nil, fmt.Errorf("churn: drain left %d failed transfers: %+v", rep.Failed, rep)
	}
	for _, nd := range g.nodes {
		if err := nd.RemovePeer(joiner.ID()); err != nil {
			return nil, fmt.Errorf("churn: leave %s: %w", nd.ID(), err)
		}
	}
	leave.To = time.Now()
	return []transition{join, leave}, nil
}

// stepResult is one constant-rate load step.
type stepResult struct {
	TargetRPS   float64 `json:"target_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	Requests    int     `json:"requests"`
	Completed   int     `json:"completed"`
	Errors      int     `json:"errors"`

	// Transitions counts membership operations run inside this step
	// (-churn), TransitionErrors the request errors completing inside
	// one of their windows. Both stay zero without -churn.
	Transitions      int `json:"transitions,omitempty"`
	TransitionErrors int `json:"transition_errors,omitempty"`

	ShedByNode int64 `json:"shed"`
	Coalesced  int64 `json:"coalesced_followers"`
	LocalHits  int   `json:"local_hits"`
	RemoteHits int   `json:"remote_hits"`
	Misses     int   `json:"misses"`

	P50MS  float64 `json:"p50_ms"`
	P99MS  float64 `json:"p99_ms"`
	P999MS float64 `json:"p999_ms"`
	MaxMS  float64 `json:"max_ms"`

	// SlowTraces names the slowest (>=p99) requests of the step by their
	// group-wide trace IDs (-obs only): feed one to `eacctl trace` — or
	// grep the nodes' /debug/trace dumps — to see where the time went.
	SlowTraces []slowTrace `json:"slow_traces,omitempty"`
}

// slowTrace is one tail-latency request worth investigating.
type slowTrace struct {
	TraceID   string  `json:"trace_id"`
	LatencyMS float64 `json:"latency_ms"`
	URL       string  `json:"url"`
	Node      string  `json:"node"`
	Outcome   string  `json:"outcome"`
}

// maxSlowTraces bounds the per-step tail sample in the artifact.
const maxSlowTraces = 10

type artifact struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	GOMAXPROCS  int    `json:"gomaxprocs"`

	Nodes     int     `json:"nodes"`
	Scheme    string  `json:"scheme"`
	Locate    string  `json:"locate"`
	Docs      int     `json:"docs"`
	ZipfAlpha float64 `json:"zipf_alpha"`
	Seed      uint64  `json:"seed"`
	DurationS float64 `json:"step_duration_s"`
	Churn     bool    `json:"churn,omitempty"`
	Obs       bool    `json:"obs,omitempty"`

	Steps []stepResult `json:"steps"`

	// Headline figures. The latency percentiles come from the first
	// (base-rate) step — the unsaturated tail; SaturationRPS is the
	// highest throughput any step actually achieved.
	P50MS         float64 `json:"p50_ms"`
	P99MS         float64 `json:"p99_ms"`
	P999MS        float64 `json:"p999_ms"`
	SaturationRPS float64 `json:"saturation_rps"`
	ShedRate      float64 `json:"shed_rate"`
	CoalesceRate  float64 `json:"coalesce_rate"`

	// TransitionErrors totals the per-step counts (-churn only).
	TransitionErrors int `json:"transition_errors,omitempty"`
}

func runLoad(cfg config, stdout io.Writer) error {
	g, err := startGroup(cfg)
	if err != nil {
		return err
	}
	defer g.close()

	zipf, err := dist.NewZipf(cfg.docs, cfg.zipfAlpha)
	if err != nil {
		return err
	}
	rng := dist.NewRNG(cfg.seed)

	var steps []stepResult
	target := cfg.rps
	for len(steps) < cfg.maxSteps {
		st, err := runStep(g, cfg, zipf, rng, target)
		if err != nil {
			return err
		}
		steps = append(steps, st)
		fmt.Fprintf(stdout,
			"step %d: target %.0f rps, achieved %.1f rps, p50=%.2fms p99=%.2fms p999=%.2fms, errors=%d shed=%d coalesced=%d\n",
			len(steps), st.TargetRPS, st.AchievedRPS, st.P50MS, st.P99MS, st.P999MS,
			st.Errors, st.ShedByNode, st.Coalesced)
		if cfg.churn {
			fmt.Fprintf(stdout, "step %d churn: %d transitions, %d errors inside transition windows\n",
				len(steps), st.Transitions, st.TransitionErrors)
		}
		if !cfg.saturate {
			break
		}
		if st.AchievedRPS < 0.9*st.TargetRPS {
			// The group fell behind the offered load: saturated.
			break
		}
		target *= 2
	}

	art := artifact{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Nodes:       cfg.nodes,
		Scheme:      cfg.scheme.Name(),
		Locate:      cfg.location.String(),
		Docs:        cfg.docs,
		ZipfAlpha:   cfg.zipfAlpha,
		Seed:        cfg.seed,
		DurationS:   cfg.duration.Seconds(),
		Churn:       cfg.churn,
		Obs:         cfg.obs,
		Steps:       steps,
	}
	base := steps[0]
	art.P50MS, art.P99MS, art.P999MS = base.P50MS, base.P99MS, base.P999MS
	var totalReq, totalErr, totalTransErr int
	var totalShed, totalCoal int64
	for _, st := range steps {
		if st.AchievedRPS > art.SaturationRPS {
			art.SaturationRPS = st.AchievedRPS
		}
		totalReq += st.Requests
		totalErr += st.Errors
		totalTransErr += st.TransitionErrors
		totalShed += st.ShedByNode
		totalCoal += st.Coalesced
	}
	art.TransitionErrors = totalTransErr
	if totalReq > 0 {
		art.ShedRate = float64(totalShed) / float64(totalReq)
		art.CoalesceRate = float64(totalCoal) / float64(totalReq)
	}

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(cfg.out), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout,
		"loadgen: %d nodes, %s/%s: p50=%.2fms p99=%.2fms p999=%.2fms saturation=%.1f rps (shed rate %.4f, coalesce rate %.4f) -> %s\n",
		cfg.nodes, art.Scheme, art.Locate, art.P50MS, art.P99MS, art.P999MS,
		art.SaturationRPS, art.ShedRate, art.CoalesceRate, cfg.out)

	if cfg.check && (totalErr > 0 || totalShed > 0) {
		if totalTransErr > 0 {
			return fmt.Errorf("check failed: %d request errors completed inside membership transition windows (%d errors, %d sheds overall)",
				totalTransErr, totalErr, totalShed)
		}
		return fmt.Errorf("check failed at unsaturated load: %d request errors, %d sheds", totalErr, totalShed)
	}
	return nil
}

// runStep fires one constant-rate open-loop step and collects the tail.
// With -churn it also runs a membership cycle concurrently and counts
// the errors that complete inside the transition windows.
func runStep(g *group, cfg config, zipf *dist.Zipf, rng *dist.RNG, targetRPS float64) (stepResult, error) {
	interarrival, err := dist.NewExponential(1 / targetRPS)
	if err != nil {
		panic(err) // targetRPS validated positive
	}

	// Generate the whole arrival schedule up front from the single-
	// threaded workload RNG: offsets into the step, URL by Zipf rank,
	// entry node uniform. The dispatch loop then only sleeps and spawns.
	type arrival struct {
		at   time.Duration
		url  string
		size int64
		node int
	}
	var schedule []arrival
	var at time.Duration
	for {
		at += time.Duration(interarrival.Sample(rng) * float64(time.Second))
		if at >= cfg.duration {
			break
		}
		schedule = append(schedule, arrival{
			at:   at,
			url:  fmt.Sprintf("http://load.example.edu/doc%05d.html", zipf.Rank(rng)),
			size: cfg.meanSize/2 + int64(rng.Intn(int(cfg.meanSize))),
			node: rng.Intn(len(g.nodes)),
		})
	}

	baseSheds, baseCoalesced := g.robustTotals()

	type sample struct {
		latency time.Duration
		done    time.Time
		outcome metrics.Outcome
		traceID obs.TraceID
		err     error
	}
	samples := make([]sample, len(schedule))
	var wg sync.WaitGroup
	start := time.Now()

	// The churn cycle runs concurrently with the open-loop dispatcher so
	// membership swaps land in the middle of live traffic.
	var (
		churnWG  sync.WaitGroup
		windows  []transition
		churnErr error
	)
	if cfg.churn {
		churnWG.Add(1)
		go func() {
			defer churnWG.Done()
			windows, churnErr = churnCycle(g, cfg, cfg.duration)
		}()
	}

	for i, a := range schedule {
		// Open loop: sleep to the scheduled instant, fire, never wait for
		// the previous request. Latency is charged from the scheduled
		// arrival, so dispatcher lag and server queueing both count.
		if d := time.Until(start.Add(a.at)); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, a arrival) {
			defer wg.Done()
			sched := start.Add(a.at)
			res, err := g.nodes[a.node].Request(a.url, a.size)
			samples[i] = sample{latency: time.Since(sched), done: time.Now(), outcome: res.Outcome, traceID: res.TraceID, err: err}
		}(i, a)
	}
	wg.Wait()
	elapsed := time.Since(start)
	churnWG.Wait()
	if churnErr != nil {
		return stepResult{}, churnErr
	}

	st := stepResult{TargetRPS: targetRPS, Requests: len(schedule), Transitions: len(windows)}
	latencies := make([]time.Duration, 0, len(samples))
	for _, s := range samples {
		if s.err != nil {
			st.Errors++
			if inTransition(s.done, windows) {
				st.TransitionErrors++
			}
			if errors.Is(s.err, netnode.ErrOverloaded) {
				// Shed requests are counted from the node side below; the
				// client just sees the fast refusal.
				continue
			}
			continue
		}
		st.Completed++
		latencies = append(latencies, s.latency)
		switch s.outcome {
		case metrics.LocalHit:
			st.LocalHits++
		case metrics.RemoteHit:
			st.RemoteHits++
		default:
			st.Misses++
		}
	}
	if elapsed > 0 {
		st.AchievedRPS = float64(st.Completed) / elapsed.Seconds()
	}
	sheds, coalesced := g.robustTotals()
	st.ShedByNode = sheds - baseSheds
	st.Coalesced = coalesced - baseCoalesced

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	st.P50MS = percentileMS(latencies, 0.50)
	st.P99MS = percentileMS(latencies, 0.99)
	st.P999MS = percentileMS(latencies, 0.999)
	if n := len(latencies); n > 0 {
		st.MaxMS = float64(latencies[n-1]) / float64(time.Millisecond)
	}
	if cfg.obs && len(latencies) > 0 {
		threshold := time.Duration(st.P99MS * float64(time.Millisecond))
		for i, s := range samples {
			if s.err != nil || s.traceID == 0 || s.latency < threshold {
				continue
			}
			st.SlowTraces = append(st.SlowTraces, slowTrace{
				TraceID:   s.traceID.String(),
				LatencyMS: float64(s.latency) / float64(time.Millisecond),
				URL:       schedule[i].url,
				Node:      g.nodes[schedule[i].node].ID(),
				Outcome:   s.outcome.String(),
			})
		}
		sort.Slice(st.SlowTraces, func(i, j int) bool {
			return st.SlowTraces[i].LatencyMS > st.SlowTraces[j].LatencyMS
		})
		if len(st.SlowTraces) > maxSlowTraces {
			st.SlowTraces = st.SlowTraces[:maxSlowTraces]
		}
	}
	return st, nil
}

// percentileMS returns the q-th percentile of sorted latencies in
// milliseconds — exact over the collected samples (nearest-rank), no
// bucketing.
func percentileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(q * float64(len(sorted)))
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}
