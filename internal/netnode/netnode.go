// Package netnode runs a cooperative caching proxy on real sockets: ICP
// (RFC 2186) over UDP for document location and the hproto inter-proxy
// fetch protocol over TCP, with cache expiration ages piggybacked exactly
// as the paper describes. It demonstrates that the EA scheme's decision
// inputs travel on the wire with no extra messages; the deterministic
// simulator (internal/sim) uses the same decision logic in-process.
package netnode

import (
	"fmt"
	"log"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
	"eacache/internal/faults"
	"eacache/internal/icp"
	"eacache/internal/metrics"
	"eacache/internal/obs"
	"eacache/internal/persist"
	"eacache/internal/resolve"
)

// Node is a live cooperative cache node.
type Node struct {
	id            string
	originAddr    string
	parentAddr    string
	icpTimeout    time.Duration
	dialTimeout   time.Duration
	fetchTimeout  time.Duration
	fetchAttempts int
	location      resolve.Location
	hashName      string
	nowFn         func() time.Time
	engine        *resolve.Engine
	digests       *digestState
	faults        *faults.Injector
	obs           *obs.Telemetry // nil without Config.Obs: no traces, no histograms, nothing scraped
	om            *nodeObs       // never nil (see nodeObs)
	logger        *slog.Logger

	// Overload protection: originSem bounds concurrent parent/origin
	// fetches; inflight (nil when shedding is off) bounds concurrent
	// Request calls, shedding after shedWait. Both are plain buffered
	// channels used as counting semaphores.
	originSem chan struct{}
	inflight  chan struct{}
	shedWait  time.Duration

	// The request path has no global lock: the sharded store serialises
	// per shard, the peer set is an immutable snapshot swapped atomically
	// by every membership change, and the digest machinery has its own
	// small mutex. The store is the tiered facade; without a disk tier it
	// is a zero-cost pass-through to the sharded memory store.
	store     *cache.TieredStore
	blobStore *blob.Store // nil without a disk tier
	peers     atomic.Pointer[peerSet]
	// hash is the consistent-hash locator under LocateHash, rebuilt on
	// every membership change and swapped atomically like the peer
	// snapshot.
	hash atomic.Pointer[resolve.HashLocator]

	// Elastic membership (membership.go, migrate.go). mem guards the
	// configured member list and its liveness records, keyed by fetch
	// address (both replaced, never mutated, by every change); epoch
	// counts published topologies; draining is set for good by
	// DrainHandoff.
	mem struct {
		sync.Mutex
		members []Peer
		live    map[string]*liveness
	}
	epoch        atomic.Int64
	draining     atomic.Bool
	deadAfter    int
	ejectAfter   time.Duration
	readmitProbe time.Duration
	migrateKick  chan struct{}
	lastMig      atomic.Pointer[MigrationReport]
	drainMu      sync.Mutex

	digestMu sync.Mutex // guards digests (own summary + fetched filters)

	persister *persist.Persister
	snapEvery time.Duration
	recovery  RecoveryReport

	icpServer *icp.Server
	icpClient *icp.Client
	httpLn    net.Listener

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// RecoveryReport describes a warm restart. Each directory recovers on its
// own: DataDir's snapshot and journal restore the memory tier, DiskDir's
// blob index the disk tier; either half is zero without its directory.
type RecoveryReport struct {
	persist.Report
	// Restored is what made it into the live memory tier.
	Restored persist.RestoreStats
	// Disk is the blob tier's own Open-time recovery.
	Disk blob.Report
	// DiskTrimmed counts the Disk.Entries dropped since because the journal
	// restored the same URL into memory (the memory copy wins).
	DiskTrimmed int
}

// New starts a node's ICP responder and fetch listener. Close releases
// both.
func New(cfg Config) (*Node, error) {
	demotePolicy, err := cfg.validate()
	if err != nil {
		return nil, err
	}
	// The tiered facade always fronts the memory store. Without DiskDir it
	// is a pure pass-through (identical behaviour and cost); with it, the
	// blob tier recovers itself from its own index here — a warm restart
	// that never re-reads blob bodies nor needs DataDir — and the EA-aware
	// controller starts demoting victims that still have life ahead of them.
	var blobStore *blob.Store
	tcfg := cache.TieredConfig{Memory: cfg.Store, Demote: demotePolicy}
	if cfg.DiskDir != "" {
		shape := cfg.Store.TrackerState()
		bs, err := blob.Open(blob.Config{
			Dir:               cfg.DiskDir,
			Capacity:          cfg.DiskCapacity,
			ExpirationWindow:  shape.Window,
			ExpirationHorizon: shape.Horizon,
		})
		if err != nil {
			return nil, fmt.Errorf("netnode: disk tier: %w", err)
		}
		blobStore = bs
		tcfg.Disk = bs
	}
	tiered, err := cache.NewTiered(tcfg)
	if err != nil {
		if blobStore != nil {
			_ = blobStore.Close()
		}
		return nil, fmt.Errorf("netnode: %w", err)
	}
	n := &Node{
		id:            cfg.ID,
		originAddr:    cfg.OriginAddr,
		parentAddr:    cfg.ParentAddr,
		icpTimeout:    cfg.ICPTimeout,
		dialTimeout:   cfg.DialTimeout,
		fetchTimeout:  cfg.FetchTimeout,
		fetchAttempts: cfg.FetchAttempts,
		location:      cfg.Location,
		nowFn:         cfg.Now,
		faults:        cfg.Faults,
		logger:        cfg.Logger,
		store:         tiered,
		blobStore:     blobStore,
		originSem:     make(chan struct{}, cfg.OriginConcurrency),
		shedWait:      cfg.ShedQueueWait,
		deadAfter:     cfg.DeadAfter,
		ejectAfter:    cfg.EjectAfter,
		readmitProbe:  cfg.ReadmitProbe,
		icpClient:     icp.NewClient(),
		closed:        make(chan struct{}),
		om:            new(nodeObs),
	}
	if cfg.MaxInflight > 0 {
		n.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	n.obs = cfg.Obs
	n.om.register(n, cfg.Store, cfg.Obs)

	if cfg.Faults != nil {
		// Chaos mode: every socket the node opens goes through the
		// injector — the shared ICP query socket here (bound once, on
		// the first query), fetch dials in Node.dial, and accepted
		// fetch conns below.
		n.icpClient.Listen = func() (net.PacketConn, error) {
			c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				if c, err = net.ListenUDP("udp", nil); err != nil {
					return nil, err
				}
			}
			return cfg.Faults.WrapPacketConn(c), nil
		}
	}
	if cfg.Location == resolve.LocateDigest {
		// The digest advertises both tiers (disk-resident documents are
		// servable), so the filter is sized for the whole logical store.
		ds, err := newDigestState(cfg.Store.Capacity()+cfg.DiskCapacity, cfg.DigestRefresh, cfg.DigestDeltaWindow)
		if err != nil {
			return nil, fmt.Errorf("netnode: %w", err)
		}
		n.digests = ds
	}

	// The icp and persist packages keep their *log.Logger interface; bridge
	// the structured logger into them.
	var stdLogger *log.Logger
	if cfg.Logger != nil {
		stdLogger = slog.NewLogLogger(cfg.Logger.Handler(), slog.LevelWarn)
	}

	// Recover persisted state into the memory tier before any server can
	// touch it (a URL the blob index recovered too loses its blob to the
	// memory copy), then journal every mutation from here on. Persistence
	// observes the store through its event sink, so the replacement
	// policies and the request path stay oblivious to it.
	if blobStore != nil {
		n.recovery.Disk = blobStore.Report()
		if lost := n.recovery.Disk.LostBlobs; lost > 0 {
			n.warn("disk tier recovery dropped entries whose bytes were gone", nil, "lost", lost)
		}
	}
	if cfg.DataDir != "" {
		p, err := persist.Open(persist.Config{
			Dir:    cfg.DataDir,
			Logger: stdLogger,
		})
		if err != nil {
			return nil, fmt.Errorf("netnode: %w", err)
		}
		n.recovery.Report = p.Report()
		n.recovery.Restored = persist.Restore(n.store, p.RecoveredState())
		if skipped := n.recovery.Restored.Skipped; skipped > 0 {
			n.warn("recovery skipped entries that no longer fit", nil, "skipped", skipped)
		}
		if blobStore != nil {
			n.recovery.DiskTrimmed = n.recovery.Disk.Entries - blobStore.Len()
		}
		n.persister = p
		n.snapEvery = cfg.SnapshotInterval
	}

	// The own digest is seeded from the (possibly just recovered) store
	// before the event sink starts feeding it; from here on every cache
	// mutation maintains the advertised summary incrementally and this is
	// the last full URL scan a healthy node ever performs.
	if n.digests != nil {
		n.digests.own.Seed(n.store.URLs())
	}

	// Chain the persistence, telemetry, and digest event sinks: all
	// observe the store without the replacement policies knowing.
	var sinks []func(cache.Event)
	if n.persister != nil {
		sinks = append(sinks, n.persister.Append)
	}
	if n.obs != nil {
		sinks = append(sinks, n.om.cacheEvent)
	}
	if n.digests != nil {
		sinks = append(sinks, n.digestEvent)
	}
	switch len(sinks) {
	case 0:
	case 1:
		n.store.SetEventSink(sinks[0])
	default:
		chain := sinks
		n.store.SetEventSink(func(ev cache.Event) {
			for _, s := range chain {
				s(ev)
			}
		})
	}

	icpServer, err := icp.NewServer(cfg.ICPAddr, icp.HandlerFunc(n.handleICP), stdLogger)
	if err != nil {
		n.closePersister()
		n.closeDiskTier()
		return nil, err
	}
	n.icpServer = icpServer

	ln, err := listenTCP(cfg.HTTPAddr)
	if err != nil {
		_ = icpServer.Close()
		n.closePersister()
		n.closeDiskTier()
		return nil, fmt.Errorf("netnode: listen %q: %w", cfg.HTTPAddr, err)
	}
	if cfg.Faults != nil {
		ln = cfg.Faults.WrapListener(ln)
	}
	n.httpLn = ln

	n.hashName = cfg.HashName
	if n.hashName == "" {
		n.hashName = ln.Addr().String()
	}
	// The engine owns the request lifecycle; the node supplies its
	// store, transport, locators, and telemetry through the adapters in
	// resolve.go. A broken parent degrades to the origin when one is
	// known — the live node's availability posture. Concurrent misses for
	// one URL are coalesced single-flight, counted by the callbacks.
	co := resolve.NewCoalescer()
	co.OnFollower = func(string) { n.om.coalesced.Inc() }
	co.OnElect = func(_ string, retry bool) {
		if retry {
			n.om.elections[elRetry].Inc()
		} else {
			n.om.elections[elInitial].Inc()
		}
	}
	n.engine = &resolve.Engine{
		ID:              "netnode " + n.id,
		Store:           nodeStore{n},
		Scheme:          cfg.Scheme,
		Locator:         nodeLocator{n},
		Transport:       nodeTransport{n},
		Hooks:           nodeHooks{n},
		Coalescer:       co,
		DegradeToOrigin: n.originAddr != "",
	}

	n.wg.Add(1)
	go n.acceptLoop()
	if n.persister != nil && n.snapEvery > 0 {
		n.wg.Add(1)
		go n.snapshotLoop()
	}
	if n.location == resolve.LocateHash {
		// Only hash placement is structural enough that a membership
		// change moves document ownership; the migrator follows it.
		n.migrateKick = make(chan struct{}, 1)
		n.wg.Add(1)
		go n.migratorLoop()
	}
	n.wg.Add(1)
	go n.membershipLoop()
	if n.digests != nil {
		// Background digest revalidation: known peer replicas are kept
		// fresh off the request path (misses serve stale while a
		// single-flight refresh runs).
		n.wg.Add(1)
		go n.digestLoop()
	}
	return n, nil
}

// closePersister detaches and closes the persistence layer (constructor
// error paths only).
func (n *Node) closePersister() {
	if n.persister == nil {
		return
	}
	n.store.SetEventSink(nil)
	_ = n.persister.Close()
	n.persister = nil
}

// closeDiskTier closes the blob tier (constructor error paths only; the
// normal path closes it through shutdown).
func (n *Node) closeDiskTier() {
	if n.blobStore != nil {
		_ = n.blobStore.Close()
		n.blobStore = nil
	}
}

// ID returns the node name.
func (n *Node) ID() string { return n.id }

// ICPAddr returns the bound UDP address.
func (n *Node) ICPAddr() *net.UDPAddr { return n.icpServer.Addr() }

// HTTPAddr returns the bound TCP address.
func (n *Node) HTTPAddr() string { return n.httpLn.Addr().String() }

// SetPeers replaces the whole configured member set (boot wiring; use
// AddPeer/RemovePeer for incremental changes): a member that stays keeps
// its liveness record, ejection included, and one that left loses it.
// The active set is published as an immutable snapshot behind an atomic
// pointer: the request path reads it with one atomic load and no
// per-request copy, and never observes a half-updated set.
func (n *Node) SetPeers(peers []Peer) {
	n.mem.Lock()
	defer n.mem.Unlock()
	n.setMembersLocked(append([]Peer(nil), peers...))
}

// peerSet is one published peer snapshot: the active peers and, index for
// index, their ICP addresses — the slice a healthy group's fan-out hands
// to the ICP client as-is — and their fetch addresses as candidates, which
// a fan-out with one holder answers with a one-element view of; plus the
// liveness record of every configured member, ejected ones included.
// Immutable once stored.
type peerSet struct {
	list  []Peer
	icp   []*net.UDPAddr
	cands []resolve.Candidate
	live  map[string]*liveness
}

func newPeerSet(list []Peer, live map[string]*liveness) *peerSet {
	set := &peerSet{list: list, icp: icpAddrs(list), cands: make([]resolve.Candidate, len(list)), live: live}
	for i, p := range list {
		set.cands[i] = resolve.Candidate{ID: p.HTTP}
	}
	return set
}

// peerList returns the current immutable peer snapshot. Callers must not
// mutate it.
func (n *Node) peerList() []Peer {
	if p := n.peers.Load(); p != nil {
		return p.list
	}
	return nil
}

func sum(cs []obs.Counter) (total int64) {
	for i := range cs {
		total += cs[i].Value()
	}
	return total
}

// Robustness returns the node's degradation counters — the same storage
// /metrics serves, read without a registry.
func (n *Node) Robustness() metrics.RobustnessSnapshot {
	o := n.om
	return metrics.RobustnessSnapshot{
		PeerFailures:  sum(o.peerFailures[:]),
		Retries:       o.retries.Value(),
		Fallbacks:     o.fallbacks.Value(),
		BreakerOpens:  o.breaker[brOpen].Value(),
		BreakerCloses: o.breaker[brClose].Value(),
		WireClamps:    o.clamps[clampAge].Value(),
		TraceClamps:   o.clamps[clampTrace].Value(),

		CoalescedFollowers: o.coalesced.Value(),
		LeaderElections:    sum(o.elections[:]),
		LeaderRetries:      o.elections[elRetry].Value(),
		Sheds:              o.sheds.Value(),
		OriginWaits:        o.upstreamWaits.Value(),

		Ejections:         o.memEvents[memEjection].Value(),
		Readmissions:      o.memEvents[memReadmission].Value(),
		MigratedDocs:      o.migrations[mrTransferred].Value(),
		MigratedBytes:     o.migrBytes.Value(),
		MigrationFailures: o.migrations[mrFailed].Value(),
	}
}

// Close stops both servers, waits for in-flight handlers, checkpoints
// persistent state, and releases the data directory. It is idempotent and
// safe to call concurrently — with other Close/Drain calls and with an
// in-flight Request, which at worst fails with a connection error.
func (n *Node) Close() error { return n.shutdown(0) }

// Drain is the graceful variant of Close: stop accepting new work
// immediately, give in-flight handlers up to FetchTimeout to finish (the
// longest an exchange may run anyway, instead of waiting indefinitely),
// write a final snapshot, then release everything. Handlers still running
// at the deadline keep their journal appends — recovery replays them on
// top of the final snapshot.
func (n *Node) Drain() error { return n.shutdown(n.fetchTimeout) }

// shutdown runs the close sequence exactly once; wait > 0 bounds the
// in-flight handler wait.
func (n *Node) shutdown(wait time.Duration) error {
	n.closeOnce.Do(func() {
		close(n.closed)
		icpErr := n.icpServer.Close()
		lnErr := n.httpLn.Close()

		done := make(chan struct{})
		go func() {
			n.wg.Wait()
			close(done)
		}()
		if wait > 0 {
			select {
			case <-done:
			case <-time.After(wait):
				n.warn("drain deadline passed with handlers in flight", nil, "deadline", wait)
			}
		} else {
			<-done
		}

		// Tier-drain barrier BEFORE the journal's final rotate: Quiesce
		// takes the all-shards checkpoint barrier (every in-flight demotion
		// and promotion mutates under a shard lock, so acquiring all of
		// them means none is mid-flight) and fsyncs the blob index. Only
		// then does the final checkpoint capture and rotate, so a document
		// the snapshot no longer lists in memory is durably on disk.
		if err := n.store.Quiesce(); err != nil {
			n.warn("disk tier quiesce failed", nil, "err", err)
		}
		if n.persister != nil {
			if err := n.checkpoint(); err != nil {
				n.warn("final snapshot failed", nil, "err", err)
			}
			n.store.SetEventSink(nil)
			if err := n.persister.Close(); err != nil {
				n.warn("close persister failed", nil, "err", err)
			}
		}
		if err := n.store.CloseDisk(); err != nil {
			n.warn("close disk tier failed", nil, "err", err)
		}
		_ = n.icpClient.Close()

		if icpErr != nil {
			n.closeErr = icpErr
		} else {
			n.closeErr = lnErr
		}
	})
	return n.closeErr
}

// Recovery reports what the last warm restart recovered; ok is false when
// the node runs with neither a data nor a disk directory.
func (n *Node) Recovery() (RecoveryReport, bool) {
	return n.recovery, n.persister != nil || n.blobStore != nil
}

// snapshotLoop checkpoints every snapEvery until the node closes.
func (n *Node) snapshotLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.snapEvery)
	defer t.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-t.C:
			if err := n.checkpoint(); err != nil {
				n.warn("snapshot failed", nil, "err", err)
			}
		}
	}
}

// checkpoint captures the store and rotates the journal at one consistent
// instant (all shard locks held, so every event before the capture is in
// the rotated-away journal and every later one in the new generation),
// then writes the snapshot without blocking the request path.
func (n *Node) checkpoint() error {
	var st persist.State
	err := n.store.Checkpoint(func(view cache.StoreView) error {
		st = persist.CaptureState(view)
		return n.persister.Rotate()
	})
	if err == nil {
		err = n.persister.WriteSnapshot(st)
	}
	if err != nil {
		n.om.checkpointErr.Inc()
	} else {
		n.om.checkpoints.Inc()
	}
	return err
}

// now is the node's cache-visible clock (Config.Now; time.Now unless a
// parity harness injected one). Socket deadlines and latency metrics
// read time.Now directly.
func (n *Node) now() time.Time { return n.nowFn() }

// ExpirationAge returns the node's current contention signal.
func (n *Node) ExpirationAge() time.Duration {
	return n.store.ExpirationAge(n.now())
}

// Contains reports whether the node caches url, for tests.
func (n *Node) Contains(url string) bool {
	return n.store.Contains(url)
}

// Len returns how many documents the node currently caches, for tests
// and the parity harness.
func (n *Node) Len() int { return n.store.Len() }

// warn emits one structured operational warning, tagged with the node ID
// and — when the call sits on a traced request path — the request ID, so
// log lines join up with /debug/trace entries (rendered here, off the
// request path, as the parent the trace's onward context names).
func (n *Node) warn(msg string, tr *obs.Trace, attrs ...any) {
	if n.logger == nil {
		return
	}
	attrs = append(attrs, "node", n.id)
	if tc, err := obs.ParseTraceContext(tr.Context()); err == nil {
		attrs = append(attrs, "request_id", tc.ParentID)
	}
	n.logger.Warn(msg, attrs...)
}
