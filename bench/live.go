package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/metrics"
	"eacache/internal/netnode"
	"eacache/internal/obs"
	"eacache/internal/resolve"
)

// nodeMemory is every live node's memory tier.
const nodeMemory = 4 << 20

// groupConfig describes the in-process live group. It is built the way
// cmd/loadgen builds one: an hproto origin plus N netnode.Nodes over
// sharded stores, peered with SetPeers, so every ICP query, peer fetch and
// origin fetch crosses a real loopback UDP/TCP socket.
type groupConfig struct {
	nodes   int
	clock   *vclock
	obs     bool   // proxyd's -admin-addr defaults when true, Obs nil when false
	dir     string // per-node DiskDir/DataDir root; "" for a memory-only group
	diskCap int64
}

type liveGroup struct {
	origin *netnode.OriginServer
	nodes  []*netnode.Node
	tels   []*obs.Telemetry
}

func startGroup(cfg groupConfig) (*liveGroup, error) {
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		return nil, err
	}
	g := &liveGroup{origin: origin}
	for i := 0; i < cfg.nodes; i++ {
		id := "bench-" + strconv.Itoa(i)
		store, err := cache.NewSharded(cache.ShardedConfig{
			Capacity:         nodeMemory,
			ExpirationWindow: cache.DefaultExpirationWindow,
		})
		if err != nil {
			g.close()
			return nil, err
		}
		nc := netnode.Config{
			ID:         id,
			ICPAddr:    "127.0.0.1:0",
			HTTPAddr:   "127.0.0.1:0",
			Store:      store,
			Scheme:     core.EA{},
			OriginAddr: origin.Addr(),
			Location:   resolve.LocateICP,
			Now:        cfg.clock.now,
		}
		var tel *obs.Telemetry
		if cfg.obs {
			tel = obs.New(id, obs.DefaultTraceCapacity)
			tel.SetTraceSampling(obs.DefaultTraceSampling)
			nc.Obs = tel
		}
		if cfg.dir != "" {
			nc.DiskDir = filepath.Join(cfg.dir, id, "blobs")
			nc.DiskCapacity = cfg.diskCap
			nc.DataDir = filepath.Join(cfg.dir, id, "journal")
		}
		node, err := netnode.New(nc)
		if err != nil {
			g.close()
			return nil, err
		}
		g.nodes = append(g.nodes, node)
		g.tels = append(g.tels, tel)
	}
	for i, nd := range g.nodes {
		var peers []netnode.Peer
		for j, other := range g.nodes {
			if i != j {
				peers = append(peers, netnode.Peer{ICP: other.ICPAddr(), HTTP: other.HTTPAddr(), Name: other.ID()})
			}
		}
		nd.SetPeers(peers)
	}
	return g, nil
}

func (g *liveGroup) close() {
	for _, nd := range g.nodes {
		_ = nd.Close()
	}
	_ = g.origin.Close()
}

func (g *liveGroup) setSampling(n int) {
	for _, tel := range g.tels {
		tel.SetTraceSampling(n)
	}
}

// scrape sums every series of the group's obs registries, keyed by the
// exposition's own `name{labels}` text — the public surface the counters
// are read from.
func (g *liveGroup) scrape() (map[string]float64, error) {
	sum := map[string]float64{}
	for _, tel := range g.tels {
		if tel == nil {
			continue
		}
		var buf bytes.Buffer
		if err := tel.Registry.WritePrometheus(&buf); err != nil {
			return nil, err
		}
		for _, line := range strings.Split(buf.String(), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			cut := strings.LastIndexByte(line, ' ')
			if cut < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[cut+1:], 64)
			if err != nil {
				return nil, fmt.Errorf("registry line %q: %w", line, err)
			}
			sum[line[:cut]] += v
		}
	}
	return sum, nil
}

// groupCounters is the group's monotonic counters at one instant.
type groupCounters struct {
	series        map[string]float64
	originFetches int64
	robust        metrics.RobustnessSnapshot
}

func (g *liveGroup) counters() (groupCounters, error) {
	series, err := g.scrape()
	if err != nil {
		return groupCounters{}, err
	}
	gc := groupCounters{series: series, originFetches: g.origin.Fetches()}
	for _, nd := range g.nodes {
		rb := nd.Robustness()
		gc.robust.Retries += rb.Retries
		gc.robust.Fallbacks += rb.Fallbacks
		gc.robust.Sheds += rb.Sheds
		gc.robust.CoalescedFollowers += rb.CoalescedFollowers
	}
	return gc, nil
}

// Request classes, indexed by metrics.Outcome-1.
const (
	classLocal = iota
	classRemote
	classMiss
	classCount
)

// client is one closed-loop caller: it issues its next scripted request
// when the previous one returns.
type client struct {
	script []req
	pos    int   // next script entry; carries over from slice to slice
	done   int64 // completed requests

	counts  [classCount]int64
	bytes   [classCount]int64
	latSum  [classCount]int64
	failed  int64
	firstEr string
	spans   []requestSpan
}

// phaseConfig is one timed phase of a live workload.
type phaseConfig struct {
	group    *liveGroup
	cat      *catalogue
	scripts  [][]req
	clock    *vclock
	duration time.Duration // cut into sliceCount(duration) slices
	// sampleEvery timestamps one request in N; throughput counts all.
	sampleEvery int
	// spanCap > 0 records that many root spans per client (traced run).
	spanCap int
	// journalDir, when set, is measured at every slice boundary.
	journalDir string
}

type phaseResult struct {
	clients []*client
	// segStart/segEnd bracket each slice; clients run only in between.
	segStart, segEnd []procSample
	segDone          []int64 // requests completed in each slice
	// lat[slice][class] holds the timestamped requests' latencies in
	// seconds, shared by the clients; the extra class is all of them
	// together.
	lat [][classCount + 1]*obs.Histogram
	// journalGrowth is how much the journal directory grew over the
	// slices; a checkpoint's rotation shrinks it and is skipped.
	journalGrowth int64
	start         time.Time
	before        groupCounters
	after         groupCounters
}

// checkResult is the per-request correctness check: the body must be as
// long as the script says and the outcome one of the three known classes.
func checkResult(res netnode.Result, err error, wantSize int64) (class int, fault string) {
	if err != nil {
		return -1, err.Error()
	}
	class = int(res.Outcome) - 1
	if class < classLocal || class > classMiss {
		return -1, fmt.Sprintf("unknown outcome %d", res.Outcome)
	}
	if res.Size != wantSize {
		return -1, fmt.Sprintf("size %d, script says %d", res.Size, wantSize)
	}
	return class, ""
}

// clientCount is C: no more client goroutines than cores, so the numbers
// are about the program and not about the scheduler.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// runPhase drives the group with one closed-loop client per script for
// cfg.duration, one slice at a time: the clients run for a slice, come to
// rest so that every request is counted in the slice it ran in, and carry
// on where their scripts left off.
func runPhase(cfg phaseConfig) (*phaseResult, error) {
	slices := sliceCount(cfg.duration)
	pr := &phaseResult{lat: make([][classCount + 1]*obs.Histogram, slices)}
	for k := range pr.lat {
		for cl := range pr.lat[k] {
			pr.lat[k][cl] = obs.NewHistogram(latBuckets)
		}
	}
	var err error
	if pr.before, err = cfg.group.counters(); err != nil {
		return nil, err
	}
	for _, script := range cfg.scripts {
		pr.clients = append(pr.clients, &client{script: script})
	}
	journal := func() (int64, error) {
		if cfg.journalDir == "" {
			return 0, nil
		}
		return dirBytes(cfg.journalDir)
	}
	runtime.GC() // start every phase from a collected heap
	pr.start = time.Now()
	for k := 0; k < slices; k++ {
		journalAt, err := journal()
		if err != nil {
			return nil, fmt.Errorf("measure journal: %w", err)
		}
		var stop atomic.Bool
		var wg sync.WaitGroup
		var before int64
		for _, c := range pr.clients {
			before += c.done
		}
		pr.segStart = append(pr.segStart, takeProcSample())
		for _, c := range pr.clients {
			wg.Add(1)
			go func(c *client) {
				defer wg.Done()
				c.run(cfg, pr.start, &pr.lat[k], &stop)
			}(c)
		}
		time.Sleep(cfg.duration / time.Duration(slices))
		stop.Store(true)
		wg.Wait()
		pr.segEnd = append(pr.segEnd, takeProcSample())
		var after int64
		for _, c := range pr.clients {
			after += c.done
		}
		pr.segDone = append(pr.segDone, after-before)
		journalNow, err := journal()
		if err != nil {
			return nil, fmt.Errorf("measure journal: %w", err)
		}
		if journalNow > journalAt {
			pr.journalGrowth += journalNow - journalAt
		}
	}
	if pr.after, err = cfg.group.counters(); err != nil {
		return nil, err
	}
	return pr, nil
}

func (c *client) run(cfg phaseConfig, start time.Time, lat *[classCount + 1]*obs.Histogram, stop *atomic.Bool) {
	nodes, cat := cfg.group.nodes, cfg.cat
	for ; !stop.Load(); c.pos++ {
		r := c.script[c.pos%len(c.script)]
		url, size := cat.urls[r.doc], cat.sizes[r.doc]
		cfg.clock.tick()
		timed := c.pos%cfg.sampleEvery == 0
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		res, err := nodes[r.node].Request(url, size)
		var t1 time.Time
		if timed {
			t1 = time.Now()
		}
		c.done++
		class, fault := checkResult(res, err, size)
		if fault != "" {
			c.failed++
			if c.firstEr == "" {
				c.firstEr = fault
			}
			continue
		}
		c.counts[class]++
		c.bytes[class] += size
		if timed {
			took := t1.Sub(t0)
			c.latSum[class] += took.Nanoseconds()
			lat[class].ObserveDuration(took)
			lat[classCount].ObserveDuration(took)
			if len(c.spans) < cfg.spanCap {
				c.spans = append(c.spans, requestSpan{
					Node: int(r.node), Rank: int(r.doc), Outcome: res.Outcome.String(),
					StartNS: t0.Sub(start).Nanoseconds(), EndNS: t1.Sub(start).Nanoseconds(),
				})
			}
		}
	}
}

// phaseStats is a phase boiled down: per-slice series for everything
// timed, whole-phase totals for everything counted.
type phaseStats struct {
	throughput, cpuPerReq, allocsPerReq, allocKBPerReq []float64
	classP50                                           [classCount][]float64
	p99                                                []float64
	// userCPU and allCPU are process CPU time over all slices: the split
	// between user and system time is sampled by the kernel's tick, so it
	// is only good over the whole phase.
	userCPU, allCPU time.Duration

	counts, bytes, latSum [classCount]int64
	attempted, failed     int64
	firstError            string
	unreadable            map[string]string // metric -> why its source could not be read
}

func (pr *phaseResult) stats() *phaseStats {
	ps := &phaseStats{unreadable: map[string]string{}}
	for _, c := range pr.clients {
		for k := 0; k < classCount; k++ {
			ps.counts[k] += c.counts[k]
			ps.bytes[k] += c.bytes[k]
			ps.latSum[k] += c.latSum[k]
		}
		ps.attempted += c.done
		ps.failed += c.failed
		if ps.firstError == "" {
			ps.firstError = c.firstEr
		}
	}

	for k, lat := range pr.lat {
		a, b := pr.segStart[k], pr.segEnd[k]
		reqs := float64(pr.segDone[k])
		ps.throughput = append(ps.throughput, reqs/b.wall.Sub(a.wall).Seconds())
		if a.ruErr != nil || b.ruErr != nil {
			ps.unreadable["cpu_us_per_req"] = fmt.Sprint(a.ruErr, b.ruErr)
			ps.unreadable["user_cpu_us_per_req"] = fmt.Sprint(a.ruErr, b.ruErr)
		}
		ps.userCPU += b.ru.user - a.ru.user
		ps.allCPU += b.ru.cpu() - a.ru.cpu()
		if reqs > 0 {
			ps.cpuPerReq = append(ps.cpuPerReq, float64(b.ru.cpu()-a.ru.cpu())/1e3/reqs)
			ps.allocsPerReq = append(ps.allocsPerReq, float64(b.mem.Mallocs-a.mem.Mallocs)/reqs)
			ps.allocKBPerReq = append(ps.allocKBPerReq, float64(b.mem.TotalAlloc-a.mem.TotalAlloc)/1024/reqs)
		}
		for cl := 0; cl < classCount; cl++ {
			if lat[cl].Count() > 0 {
				ps.classP50[cl] = append(ps.classP50[cl], lat[cl].Quantile(0.5)*1e6)
			}
		}
		if lat[classCount].Count() > 0 {
			ps.p99 = append(ps.p99, lat[classCount].Quantile(0.99)*1e6)
		}
	}
	return ps
}
