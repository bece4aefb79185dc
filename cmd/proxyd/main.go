// Command proxyd runs one live cooperative caching proxy on real sockets:
// ICP (RFC 2186) over UDP for neighbour queries and the hproto fetch
// protocol over TCP, with cache expiration ages piggybacked per the paper.
//
// A node can also run as the origin server for the group (-origin-mode),
// and -demo spins up an entire cooperative group plus origin in one process
// and replays a small synthetic workload through it.
//
// Usage:
//
//	proxyd -origin-mode -http 127.0.0.1:8000
//	proxyd -icp 127.0.0.1:3130 -http 127.0.0.1:8081 -origin 127.0.0.1:8000 \
//	       -peer 127.0.0.1:3131/127.0.0.1:8082 -scheme ea -capacity 10MB
//	proxyd -demo -nodes 3
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/dist"
	"eacache/internal/faults"
	"eacache/internal/metrics"
	"eacache/internal/netnode"
	"eacache/internal/obs"
	"eacache/internal/resolve"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "proxyd:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("proxyd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		icpAddr    = fs.String("icp", "127.0.0.1:3130", "ICP (UDP) listen address")
		httpAddr   = fs.String("http", "127.0.0.1:8081", "fetch (TCP) listen address")
		originAddr = fs.String("origin", "", "origin server address for miss resolution")
		parentAddr = fs.String("parent", "", "hierarchical parent's fetch (TCP) address; misses resolve through it")
		schemeName = fs.String("scheme", "ea", `placement scheme: "adhoc", "ea" or "never"`)
		locate     = fs.String("locate", "icp", `document location mechanism: "icp", "digest" or "hash"`)
		hashName   = fs.String("hash-name", "", "this node's hash-ring member name under -locate=hash (default: the bound fetch address)")

		digestRefresh = fs.Duration("digest-refresh", 0, "how long a fetched peer digest is trusted before background revalidation (needs -locate=digest; 0 uses the default)")
		digestWindow  = fs.Int("digest-delta-window", 0, "generations of digest changes kept for delta sync; peers further behind get a full transfer (needs -locate=digest; 0 uses the default)")
		capacity      = fs.String("capacity", "10MB", "cache capacity")
		shards        = fs.Int("cache-shards", cache.DefaultShards,
			"cache lock shards (rounded up to a power of two); 1 serialises the store. A lock count: the expiration-age window is node-wide either way")
		peers      peerList
		originMode = fs.Bool("origin-mode", false, "run as the group's origin server instead of a proxy")
		demo       = fs.Bool("demo", false, "run a self-contained demo group and exit")
		demoNodes  = fs.Int("nodes", 3, "group size for -demo")
		demoReqs   = fs.Int("requests", 600, "requests to replay in -demo")

		dialTimeout   = fs.Duration("dial-timeout", netnode.DefaultDialTimeout, "TCP dial timeout for peer/parent/origin fetches")
		fetchTimeout  = fs.Duration("fetch-timeout", netnode.DefaultFetchTimeout, "whole-exchange timeout for inter-proxy fetches")
		fetchAttempts = fs.Int("fetch-attempts", netnode.DefaultFetchAttempts, "attempts per parent/origin fetch before the request fails")

		originConc   = fs.Int("origin-concurrency", netnode.DefaultOriginConcurrency, "max simultaneous parent/origin fetches")
		maxInflight  = fs.Int("max-inflight", 1024, "max concurrent requests before the front door sheds; 0 disables shedding")
		shedQueueLag = fs.Duration("shed-queue-wait", netnode.DefaultShedQueueWait, "how long an over-limit request may queue before it is shed (needs -max-inflight > 0)")
		chaosSpec    = fs.String("chaos", "", `inject deterministic faults into every socket, e.g. "seed=42,udp-drop=0.3,tcp-stall=0.05" (see internal/faults)`)

		diskDir      = fs.String("disk-dir", "", "directory for the checksummed blob disk tier; empty runs memory-only")
		diskCap      = fs.String("disk-capacity", "", `disk tier capacity, e.g. "100GB" (needs -disk-dir)`)
		diskDemote   = fs.String("disk-demote", "", `tier demotion rule: "ea" (paper placement rule at the tier boundary, default) or "always" (needs -disk-dir)`)
		dataDir      = fs.String("data-dir", "", "directory for crash-safe cache persistence (snapshot + journal); empty runs in-memory only")
		snapInterval = fs.Duration("snapshot-interval", netnode.DefaultSnapshotInterval, "how often to checkpoint the cache (needs -data-dir)")
		drainTimeout = fs.Duration("drain-timeout", 5*time.Second, "how long a SIGTERM/SIGINT drain waits for in-flight fetches before exiting")

		ejectAfter   = fs.Duration("eject-after", 10*time.Second, "eject a peer whose breaker stays dead this long from the locator set until a probe readmits it; 0 disables ejection")
		readmitProbe = fs.Duration("readmit-probe", netnode.DefaultReadmitProbe, "spacing of readmission probes to ejected peers (needs -eject-after > 0)")
		joinWarmup   = fs.Duration("join-warmup", 0, "under -locate=hash, relay without storing for this long after boot so the group converges on this node's arrival; 0 disables")

		nodeID      = fs.String("id", "proxyd", "node name in logs, traces and the decision audit (give each group member its own)")
		adminAddr   = fs.String("admin-addr", "", "admin HTTP listen address serving /metrics, /healthz, /debug/trace, /debug/placement, pprof and the /admin/peers membership API; empty disables telemetry")
		traceCap    = fs.Int("trace-capacity", obs.DefaultTraceCapacity, "how many recent request traces /debug/trace retains (needs -admin-addr)")
		traceSample = fs.Int("trace-sample", obs.DefaultTraceSampling, "trace one request in N; 1 traces every request, metrics always cover all (needs -admin-addr)")
	)
	fs.Var(&peers, "peer", "neighbour as <icp-addr>/<http-addr>[/<hash-name>[/<admin-addr>]] (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The overload bounds must be sane whatever mode runs; reject the
	// nonsensical values up front with the flag name in the error.
	if *originConc <= 0 {
		return fmt.Errorf("-origin-concurrency must be positive, got %d", *originConc)
	}
	if *maxInflight < 0 {
		return fmt.Errorf("-max-inflight must be positive, or 0 to disable shedding, got %d", *maxInflight)
	}
	if *shedQueueLag <= 0 {
		return fmt.Errorf("-shed-queue-wait must be positive, got %v", *shedQueueLag)
	}
	if *ejectAfter < 0 {
		return fmt.Errorf("-eject-after must be positive, or 0 to disable ejection, got %v", *ejectAfter)
	}
	if *readmitProbe <= 0 {
		return fmt.Errorf("-readmit-probe must be positive, got %v", *readmitProbe)
	}
	if *joinWarmup < 0 {
		return fmt.Errorf("-join-warmup must be positive, or 0 to disable, got %v", *joinWarmup)
	}
	if *digestRefresh < 0 {
		return fmt.Errorf("-digest-refresh must be positive, or 0 for the default, got %v", *digestRefresh)
	}
	if *digestWindow < 0 {
		return fmt.Errorf("-digest-delta-window must be positive, or 0 for the default, got %d", *digestWindow)
	}
	if *traceSample < 1 {
		return fmt.Errorf("-trace-sample must be at least 1 (trace every request), got %d", *traceSample)
	}
	if *traceCap < 1 {
		return fmt.Errorf("-trace-capacity must be positive, got %d", *traceCap)
	}

	logger := slog.New(slog.NewTextHandler(stderr, nil))

	loc, err := resolve.ParseLocation(*locate)
	if err != nil {
		return err
	}

	if *demo {
		return runDemo(stdout, logger, *demoNodes, *demoReqs, *schemeName, loc, *chaosSpec)
	}

	injector, err := newInjector(*chaosSpec)
	if err != nil {
		return err
	}

	if *originMode {
		origin, err := netnode.NewOriginServer(*httpAddr, logger)
		if err != nil {
			return err
		}
		defer origin.Close()
		fmt.Fprintf(stdout, "origin server on %s\n", origin.Addr())
		waitForSignal()
		return nil
	}

	capBytes, err := parseBytes(*capacity)
	if err != nil {
		return err
	}
	scheme, ok := core.New(*schemeName)
	if !ok {
		return fmt.Errorf("unknown scheme %q", *schemeName)
	}
	store, err := cache.NewSharded(cache.ShardedConfig{
		Shards:           *shards,
		Capacity:         capBytes,
		ExpirationWindow: cache.DefaultExpirationWindow,
	})
	if err != nil {
		return err
	}
	var tel *obs.Telemetry
	if *adminAddr != "" {
		tel = obs.New(*nodeID, *traceCap)
		tel.SetTraceSampling(*traceSample)
	}
	nodeCfg := netnode.Config{
		ID:            *nodeID,
		ICPAddr:       *icpAddr,
		HTTPAddr:      *httpAddr,
		Store:         store,
		Scheme:        scheme,
		OriginAddr:    *originAddr,
		ParentAddr:    *parentAddr,
		Location:      loc,
		HashName:      *hashName,
		DigestRefresh: *digestRefresh,
		DialTimeout:   *dialTimeout,
		FetchTimeout:  *fetchTimeout,
		FetchAttempts: *fetchAttempts,

		OriginConcurrency: *originConc,
		MaxInflight:       *maxInflight,

		JoinWarmup: *joinWarmup,

		Faults: injector,
		Obs:    tel,
		Logger: logger,
	}
	if *ejectAfter > 0 {
		// netnode rejects a probe interval with ejection off; only pass it
		// through when it applies.
		nodeCfg.EjectAfter = *ejectAfter
		nodeCfg.ReadmitProbe = *readmitProbe
	}
	if *maxInflight > 0 {
		// netnode rejects a wait bound with shedding off; only pass it
		// through when it applies.
		nodeCfg.ShedQueueWait = *shedQueueLag
	}
	if *dataDir != "" {
		nodeCfg.DataDir = *dataDir
		nodeCfg.SnapshotInterval = *snapInterval
	}
	// The disk tier: the capacity string is parsed here, everything else
	// (dir-without-capacity, demote-without-dir, ...) is validated by
	// netnode.New so the flag combinations fail loudly instead of being
	// silently ignored.
	if *diskCap != "" {
		diskBytes, err := parseBytes(*diskCap)
		if err != nil {
			return fmt.Errorf("-disk-capacity: %w", err)
		}
		nodeCfg.DiskCapacity = diskBytes
	}
	nodeCfg.DiskDir = *diskDir
	nodeCfg.DiskDemote = *diskDemote
	// Passed through unconditionally so netnode rejects
	// -digest-delta-window without -locate=digest instead of ignoring it.
	nodeCfg.DigestDeltaWindow = *digestWindow
	node, err := netnode.New(nodeCfg)
	if err != nil {
		return err
	}
	defer node.Close() // idempotent; the drain below already released everything
	node.SetPeers(peers.peers)

	if tel != nil {
		admin, err := obs.ServeAdmin(obs.AdminConfig{
			Addr:      *adminAddr,
			Telemetry: tel,
			Info: map[string]string{
				"service": "proxyd",
				"node":    *nodeID,
				"scheme":  scheme.Name(),
				"locate":  loc.String(),
				"icp":     node.ICPAddr().String(),
				"http":    node.HTTPAddr(),
			},
			Routes: node.AdminRoutes(),
			// /healthz reports the topology the node is actually routing
			// on, so a rolling restart can wait for every member to agree
			// on epoch and ring fingerprint before moving to the next one.
			HealthDetail: func() map[string]any {
				return map[string]any{
					"node":             *nodeID,
					"membership_epoch": node.Epoch(),
					"ring_fingerprint": fmt.Sprintf("%016x", node.RingFingerprint()),
					"peers_active":     node.ActivePeers(),
					"draining":         node.Draining(),
				}
			},
		})
		if err != nil {
			return err
		}
		defer admin.Close()
		fmt.Fprintf(stdout, "admin surface on http://%s (/metrics /healthz /debug/trace /debug/placement /debug/pprof /admin/peers)\n", admin.Addr())
	}

	fmt.Fprintf(stdout, "proxy up: icp=%s http=%s scheme=%s capacity=%s peers=%d\n",
		node.ICPAddr(), node.HTTPAddr(), scheme.Name(), *capacity, len(peers.peers))
	if *diskDir != "" {
		demote := *diskDemote
		if demote == "" {
			demote = cache.DemoteEA.String()
		}
		fmt.Fprintf(stdout, "disk tier: %s (%s, demote=%s)\n", *diskDir, *diskCap, demote)
	}
	if rec, ok := node.Recovery(); ok {
		if *dataDir != "" {
			fmt.Fprintf(stdout, "warm restart: recovered %d entries (%d bytes) from %s (snapshot %d entries + %d journal records)\n",
				rec.Restored.Entries, rec.Restored.Bytes, *dataDir, rec.SnapshotEntries, rec.JournalRecords)
		}
		if d := rec.Disk; *diskDir != "" {
			fmt.Fprintf(stdout, "warm restart: disk tier kept %d documents, lost %d (%d trimmed for memory copies, %d orphan segments, %d legacy files, %d index bytes truncated)\n",
				d.Entries-rec.DiskTrimmed, d.LostBlobs, rec.DiskTrimmed, d.Orphans, d.Legacy, d.TruncatedBytes)
		}
		if rec.Discarded != "" {
			fmt.Fprintf(stdout, "warm restart: discarded %d corrupt journal bytes (%s)\n",
				rec.DiscardedBytes, rec.Discarded)
		}
	}
	if injector != nil {
		fmt.Fprintf(stdout, "chaos mode: %s\n", *chaosSpec)
	}
	sig := waitForSignal()
	fmt.Fprintf(stdout, "%s: draining (in-flight deadline %v)...\n", sig, *drainTimeout)
	if err := node.Drain(*drainTimeout); err != nil {
		logger.Warn("drain failed", "err", err)
	}
	if *dataDir != "" {
		fmt.Fprintf(stdout, "drained: final snapshot flushed to %s\n", *dataDir)
	} else {
		fmt.Fprintln(stdout, "drained")
	}
	if injector != nil {
		fmt.Fprintf(stdout, "chaos injected: %+v\n", injector.Stats())
		fmt.Fprintf(stdout, "robustness: %+v\n", node.Robustness())
	}
	return nil
}

// newInjector builds a fault injector from a -chaos spec, or nil when the
// spec is empty (no chaos, no wrapper overhead).
func newInjector(spec string) (*faults.Injector, error) {
	if spec == "" {
		return nil, nil
	}
	cfg, err := faults.ParseSpec(spec)
	if err != nil {
		return nil, err
	}
	return faults.New(cfg)
}

// runDemo builds an origin plus an n-node cooperative group on loopback,
// replays a Zipf workload through it, and prints what happened on the
// wire. loc selects the document-location mechanism (under hash routing
// the demo also reports the group-wide replication factor, which must
// stay at one copy per document). A non-empty chaosSpec injects
// deterministic faults into every node's sockets and reports how the
// group degraded.
func runDemo(stdout io.Writer, logger *slog.Logger, n, requests int, schemeName string, loc resolve.Location, chaosSpec string) error {
	scheme, ok := core.New(schemeName)
	if !ok {
		return fmt.Errorf("unknown scheme %q", schemeName)
	}
	injector, err := newInjector(chaosSpec)
	if err != nil {
		return err
	}

	origin, err := netnode.NewOriginServer("127.0.0.1:0", logger)
	if err != nil {
		return err
	}
	defer origin.Close()

	nodes := make([]*netnode.Node, 0, n)
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for i := 0; i < n; i++ {
		store, err := cache.NewSharded(cache.ShardedConfig{
			Shards:           1,
			Capacity:         256 << 10,
			ExpirationWindow: cache.DefaultExpirationWindow,
		})
		if err != nil {
			return err
		}
		node, err := netnode.New(netnode.Config{
			ID:         fmt.Sprintf("node-%d", i),
			ICPAddr:    "127.0.0.1:0",
			HTTPAddr:   "127.0.0.1:0",
			Store:      store,
			Scheme:     scheme,
			OriginAddr: origin.Addr(),
			Location:   loc,
			HashName:   fmt.Sprintf("node-%d", i),
			Faults:     injector,
			Logger:     logger,
		})
		if err != nil {
			return err
		}
		nodes = append(nodes, node)
	}
	for i, nd := range nodes {
		var ps []netnode.Peer
		for j, other := range nodes {
			if i == j {
				continue
			}
			ps = append(ps, netnode.Peer{
				ICP:  other.ICPAddr(),
				HTTP: other.HTTPAddr(),
				Name: other.ID(),
			})
		}
		nd.SetPeers(ps)
	}

	fmt.Fprintf(stdout, "demo group: %d nodes, scheme=%s, locate=%s, origin=%s\n",
		n, scheme.Name(), loc, origin.Addr())

	rng := dist.NewRNG(42)
	zipf, err := dist.NewZipf(200, 0.8)
	if err != nil {
		return err
	}
	var counters metrics.Counters
	var failed int
	urls := make(map[string]bool)
	for i := 0; i < requests; i++ {
		node := nodes[rng.Intn(len(nodes))]
		url := fmt.Sprintf("http://demo.example.edu/doc%03d.html", zipf.Rank(rng))
		urls[url] = true
		res, err := node.Request(url, 2048+int64(rng.Intn(4096)))
		if err != nil {
			// Under injected faults a request can legitimately fail (e.g.
			// the origin connection keeps resetting); count it and keep
			// going so the demo reports how the group degraded. Without
			// chaos any error is a real bug.
			if injector == nil {
				return err
			}
			logger.Warn("demo request failed", "err", err)
			failed++
			continue
		}
		counters.Record(res.Outcome, res.Size)
	}

	snap := counters.Snapshot()
	fmt.Fprintf(stdout,
		"replayed %d requests over the wire: local=%.1f%% remote=%.1f%% miss=%.1f%% (origin served %d fetches)\n",
		snap.Requests, 100*snap.LocalHitRate(), 100*snap.RemoteHitRate(),
		100*snap.MissRate(), origin.Fetches())
	if failed > 0 {
		fmt.Fprintf(stdout, "failed requests: %d of %d (all retries and fallbacks exhausted)\n", failed, requests)
	}
	fmt.Fprintf(stdout, "estimated mean latency (paper model): %s\n",
		metrics.PaperLatencies.EstimatedAverageLatency(snap))

	// Group-wide replication: hash routing must leave at most one copy of
	// each document anywhere in the group; the other mechanisms replicate
	// as the placement scheme decides.
	var unique, totalCopies, maxCopies int
	for url := range urls {
		copies := 0
		for _, nd := range nodes {
			if nd.Contains(url) {
				copies++
			}
		}
		if copies > 0 {
			unique++
			totalCopies += copies
			if copies > maxCopies {
				maxCopies = copies
			}
		}
	}
	meanCopies := 0.0
	if unique > 0 {
		meanCopies = float64(totalCopies) / float64(unique)
	}
	fmt.Fprintf(stdout, "replication: %d unique documents resident, %.2f copies/doc, max %d\n",
		unique, meanCopies, maxCopies)
	if loc == resolve.LocateHash && maxCopies > 1 {
		return fmt.Errorf("hash routing violated single-copy placement: max %d copies of one document", maxCopies)
	}
	if injector != nil {
		var rb metrics.RobustnessSnapshot
		for _, nd := range nodes {
			s := nd.Robustness()
			rb.PeerFailures += s.PeerFailures
			rb.Retries += s.Retries
			rb.Fallbacks += s.Fallbacks
			rb.BreakerOpens += s.BreakerOpens
			rb.BreakerCloses += s.BreakerCloses
		}
		fmt.Fprintf(stdout, "chaos injected: %+v\n", injector.Stats())
		fmt.Fprintf(stdout, "group robustness: %+v\n", rb)
	}
	return nil
}

// peerList parses repeated -peer <icp>/<http> flags.
type peerList struct {
	peers []netnode.Peer
}

func (p *peerList) String() string {
	parts := make([]string, len(p.peers))
	for i, peer := range p.peers {
		parts[i] = fmt.Sprintf("%s/%s", peer.ICP, peer.HTTP)
		if peer.Name != "" || peer.Admin != "" {
			parts[i] += "/" + peer.Name
		}
		if peer.Admin != "" {
			parts[i] += "/" + peer.Admin
		}
	}
	return strings.Join(parts, ",")
}

func (p *peerList) Set(v string) error {
	icpPart, rest, found := strings.Cut(v, "/")
	if !found {
		return fmt.Errorf("peer %q: want <icp-addr>/<http-addr>[/<hash-name>[/<admin-addr>]]", v)
	}
	httpPart, rest, _ := strings.Cut(rest, "/")
	if httpPart == "" {
		return fmt.Errorf("peer %q: empty fetch address", v)
	}
	name, adminPart, _ := strings.Cut(rest, "/")
	udp, err := net.ResolveUDPAddr("udp", icpPart)
	if err != nil {
		return fmt.Errorf("peer %q: %w", v, err)
	}
	// A doubled neighbour would be fanned out to twice and counted as two
	// ring members; catch the operator typo at flag parse, by name.
	for _, prev := range p.peers {
		if prev.HTTP == httpPart {
			return fmt.Errorf("peer %q: duplicate fetch address %s (already given as -peer %s/%s)",
				v, httpPart, prev.ICP, prev.HTTP)
		}
		if name != "" && prev.Name == name {
			return fmt.Errorf("peer %q: duplicate hash name %q (already given to %s)", v, name, prev.HTTP)
		}
	}
	p.peers = append(p.peers, netnode.Peer{ICP: udp, HTTP: httpPart, Name: name, Admin: adminPart})
	return nil
}

func parseBytes(s string) (int64, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "GB"):
		mult, s = 1<<30, strings.TrimSuffix(s, "GB")
	case strings.HasSuffix(s, "MB"):
		mult, s = 1<<20, strings.TrimSuffix(s, "MB")
	case strings.HasSuffix(s, "KB"):
		mult, s = 1<<10, strings.TrimSuffix(s, "KB")
	}
	var n int64
	if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &n); err != nil || n <= 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	return n * mult, nil
}

func waitForSignal() os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return <-ch
}
