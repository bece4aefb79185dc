// Command proxyd runs one live cooperative caching proxy on real sockets:
// ICP (RFC 2186) over UDP for neighbour queries and the hproto fetch
// protocol over TCP, with cache expiration ages piggybacked per the paper.
//
// Two subcommands serve the group rather than run a node: `proxyd origin`
// is the group's origin server, and `proxyd demo` spins up an entire
// cooperative group plus origin in one process and replays a small
// synthetic workload through it.
//
// Usage:
//
//	proxyd origin -http 127.0.0.1:8000
//	proxyd -icp 127.0.0.1:3130 -http 127.0.0.1:8081 -origin 127.0.0.1:8000 \
//	       -peer 127.0.0.1:3131/127.0.0.1:8082 -scheme ea -capacity 10MB
//	proxyd demo -nodes 3
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
	if len(args) > 0 {
		switch args[0] {
		case "demo":
			return runDemo(args[1:], stdout, stderr)
		case "origin":
			return runOrigin(args[1:], stdout, stderr)
		}
	}
	fs := flag.NewFlagSet("proxyd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "Usage: proxyd [flags] | proxyd demo [flags] | proxyd origin [flags]")
		fs.PrintDefaults()
	}
	var (
		icpAddr    = fs.String("icp", "127.0.0.1:3130", "ICP (UDP) listen address")
		httpAddr   = fs.String("http", "127.0.0.1:8081", "fetch (TCP) listen address")
		originAddr = fs.String("origin", "", "origin server address for miss resolution")
		parentAddr = fs.String("parent", "", "hierarchical parent's fetch (TCP) address; misses resolve through it")
		schemeName = fs.String("scheme", "ea", `placement scheme: "adhoc", "ea" or "never"`)
		locate     = fs.String("locate", "icp", `document location mechanism: "icp", "digest" or "hash"`)
		hashName   = fs.String("hash-name", "", "this node's hash-ring member name under -locate=hash (default: the bound fetch address)")
		capacity   = fs.String("capacity", "10MB", "cache capacity")
		peers      peerList

		dialTimeout  = fs.Duration("dial-timeout", netnode.DefaultDialTimeout, "TCP dial timeout for peer/parent/origin fetches; probes of a dead peer run every quarter of it")
		fetchTimeout = fs.Duration("fetch-timeout", netnode.DefaultFetchTimeout, "whole-exchange timeout for inter-proxy fetches; a peer dead for two of them is ejected, and a SIGTERM/SIGINT drain waits one for in-flight requests")
		maxInflight  = fs.Int("max-inflight", 1024, "max concurrent requests before the front door sheds; 0 disables shedding")
		chaosSpec    = fs.String("chaos", "", `inject deterministic faults into every socket, e.g. "seed=42,udp-drop=0.3,tcp-stall=0.05" (see internal/faults)`)

		diskDir    = fs.String("disk-dir", "", "directory for the checksummed blob disk tier; empty runs memory-only")
		diskCap    = fs.String("disk-capacity", "", `disk tier capacity, e.g. "100GB" (needs -disk-dir)`)
		diskDemote = fs.String("disk-demote", "", `tier demotion rule: "ea" (paper placement rule at the tier boundary, default) or "always" (needs -disk-dir)`)
		dataDir    = fs.String("data-dir", "", "directory for crash-safe cache persistence (snapshot + journal); empty runs in-memory only")

		nodeID      = fs.String("id", "proxyd", "node name in logs, traces and the decision audit (give each group member its own)")
		adminAddr   = fs.String("admin-addr", "", "admin HTTP listen address serving /metrics, /healthz, /debug/trace, /debug/placement, pprof and the /admin/peers membership API; empty disables telemetry")
		traceSample = fs.Int("trace-sample", obs.DefaultTraceSampling, "trace one request in N; 1 traces every request, metrics always cover all, and /debug/trace retains the last 64×N traces (needs -admin-addr)")
	)
	fs.Var(&peers, "peer", "neighbour as <icp-addr>/<http-addr>[/<hash-name>[/<admin-addr>]] (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Reject the nonsensical values up front with the flag name in the
	// error.
	if *maxInflight < 0 {
		return fmt.Errorf("-max-inflight must be positive, or 0 to disable shedding, got %d", *maxInflight)
	}
	if *traceSample < 1 {
		return fmt.Errorf("-trace-sample must be at least 1 (trace every request), got %d", *traceSample)
	}

	logger := slog.New(slog.NewTextHandler(stderr, nil))

	loc, err := resolve.ParseLocation(*locate)
	if err != nil {
		return err
	}

	injector, err := newInjector(*chaosSpec)
	if err != nil {
		return err
	}

	capBytes, err := cache.ParseBytes(*capacity)
	if err != nil {
		return fmt.Errorf("-capacity: %w", err)
	}
	scheme, ok := core.New(*schemeName)
	if !ok {
		return fmt.Errorf("unknown scheme %q", *schemeName)
	}
	store, err := cache.NewSharded(cache.ShardedConfig{
		Capacity:         capBytes,
		ExpirationWindow: cache.DefaultExpirationWindow,
	})
	if err != nil {
		return err
	}
	var tel *obs.Telemetry
	if *adminAddr != "" {
		tel = obs.New(*nodeID, obs.TraceCapacity(*traceSample))
		tel.SetTraceSampling(*traceSample)
	}
	// The timing knobs left zero are derived by netnode from the dial and
	// fetch timeouts; the rest take their Default* constants.
	nodeCfg := netnode.Config{
		ID:           *nodeID,
		ICPAddr:      *icpAddr,
		HTTPAddr:     *httpAddr,
		Store:        store,
		Scheme:       scheme,
		OriginAddr:   *originAddr,
		ParentAddr:   *parentAddr,
		Location:     loc,
		HashName:     *hashName,
		DialTimeout:  *dialTimeout,
		FetchTimeout: *fetchTimeout,
		MaxInflight:  *maxInflight,
		DataDir:      *dataDir,
		Faults:       injector,
		Obs:          tel,
		Logger:       logger,
	}
	// The disk tier: the capacity string is parsed here, everything else
	// (dir-without-capacity, demote-without-dir, ...) is validated by
	// netnode.New so the flag combinations fail loudly instead of being
	// silently ignored.
	if *diskCap != "" {
		diskBytes, err := cache.ParseBytes(*diskCap)
		if err != nil {
			return fmt.Errorf("-disk-capacity: %w", err)
		}
		nodeCfg.DiskCapacity = diskBytes
	}
	nodeCfg.DiskDir = *diskDir
	nodeCfg.DiskDemote = *diskDemote
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
	fmt.Fprintf(stdout, "%s: draining...\n", sig)
	if err := node.Drain(); err != nil {
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

// runOrigin is `proxyd origin`: it serves as the group's origin server
// until a signal arrives.
func runOrigin(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("proxyd origin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	httpAddr := fs.String("http", "127.0.0.1:8000", "fetch (TCP) listen address")
	if err := fs.Parse(args); err != nil {
		return err
	}
	origin, err := netnode.NewOriginServer(*httpAddr, slog.New(slog.NewTextHandler(stderr, nil)))
	if err != nil {
		return err
	}
	defer origin.Close()
	fmt.Fprintf(stdout, "origin server on %s\n", origin.Addr())
	waitForSignal()
	return nil
}

// runDemo is `proxyd demo`: it builds an origin plus an n-node cooperative
// group on loopback, replays a Zipf workload through it, and prints what
// happened on the wire. -locate selects the document-location mechanism
// (under hash routing the demo also reports the group-wide replication
// factor, which must stay at one copy per document). A -chaos spec
// injects deterministic faults into every node's sockets and reports how
// the group degraded.
func runDemo(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("proxyd demo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		n          = fs.Int("nodes", 3, "group size")
		requests   = fs.Int("requests", 600, "requests to replay")
		schemeName = fs.String("scheme", "ea", `placement scheme: "adhoc", "ea" or "never"`)
		locate     = fs.String("locate", "icp", `document location mechanism: "icp", "digest" or "hash"`)
		chaosSpec  = fs.String("chaos", "", `inject deterministic faults into every socket, e.g. "seed=42,udp-drop=0.3"`)
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	loc, err := resolve.ParseLocation(*locate)
	if err != nil {
		return err
	}
	scheme, ok := core.New(*schemeName)
	if !ok {
		return fmt.Errorf("unknown scheme %q", *schemeName)
	}
	injector, err := newInjector(*chaosSpec)
	if err != nil {
		return err
	}

	origin, err := netnode.NewOriginServer("127.0.0.1:0", logger)
	if err != nil {
		return err
	}
	defer origin.Close()

	nodes := make([]*netnode.Node, 0, *n)
	defer func() {
		for _, nd := range nodes {
			_ = nd.Close()
		}
	}()
	for i := 0; i < *n; i++ {
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
		*n, scheme.Name(), loc, origin.Addr())

	rng := dist.NewRNG(42)
	zipf, err := dist.NewZipf(200, 0.8)
	if err != nil {
		return err
	}
	var counters metrics.Counters
	var failed int
	urls := make(map[string]bool)
	for i := 0; i < *requests; i++ {
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
		fmt.Fprintf(stdout, "failed requests: %d of %d (all retries and fallbacks exhausted)\n", failed, *requests)
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

func waitForSignal() os.Signal {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	return <-ch
}
