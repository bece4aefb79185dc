// Package netnode runs a cooperative caching proxy on real sockets: ICP
// (RFC 2186) over UDP for document location and the hproto inter-proxy
// fetch protocol over TCP, with cache expiration ages piggybacked exactly
// as the paper describes. It demonstrates that the EA scheme's decision
// inputs travel on the wire with no extra messages; the deterministic
// simulator (internal/sim) uses the same decision logic in-process.
package netnode

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/faults"
	"eacache/internal/health"
	"eacache/internal/hproto"
	"eacache/internal/icp"
	"eacache/internal/metrics"
	"eacache/internal/obs"
	"eacache/internal/persist"
	"eacache/internal/proxy"
	"eacache/internal/resolve"
)

// DefaultICPTimeout bounds how long a node waits for ICP replies before
// treating silent neighbours as misses.
const DefaultICPTimeout = 150 * time.Millisecond

// Defaults for the fetch-path timeouts and retry budget (Config fields of
// the same names).
const (
	DefaultDialTimeout   = 2 * time.Second
	DefaultFetchTimeout  = 5 * time.Second
	DefaultFetchAttempts = 2
)

// Overload-protection defaults (Config fields of the same names).
const (
	// DefaultOriginConcurrency bounds simultaneous parent/origin fetches.
	DefaultOriginConcurrency = 64
	// DefaultShedQueueWait is how long an over-limit request may queue at
	// the front door before it is shed (only when MaxInflight is set).
	DefaultShedQueueWait = 100 * time.Millisecond
)

// Elastic-membership defaults (Config fields of the same names).
const (
	// DefaultReadmitProbe spaces the out-of-band probes sent to ejected
	// peers.
	DefaultReadmitProbe = 500 * time.Millisecond
	// DefaultMigrateConcurrency bounds parallel handoff transfers.
	DefaultMigrateConcurrency = 2
)

// ErrOverloaded is returned by Request when the node is over its
// MaxInflight bound and the ShedQueueWait budget elapsed without a slot
// freeing up — a fast refusal instead of a collapse. Callers should test
// with errors.Is.
var ErrOverloaded = errors.New("netnode: overloaded, request shed")

// DefaultSnapshotInterval is how often a persistent node checkpoints when
// Config.SnapshotInterval is left zero.
const DefaultSnapshotInterval = 30 * time.Second

// Peer is a neighbour node's pair of service addresses.
type Peer struct {
	// ICP is the neighbour's UDP query address.
	ICP *net.UDPAddr
	// HTTP is the neighbour's TCP fetch address.
	HTTP string
	// Name is the neighbour's hash-ring member name under LocateHash
	// (its Config.HashName); empty defaults to HTTP. Sim experiments
	// route URLs to the same homes when the names match the proxy IDs.
	Name string
	// Admin is the neighbour's admin/debug HTTP address (its obs
	// endpoint), when known. Purely informational: the request path
	// never touches it, but the membership API republishes it so
	// introspection tools (cmd/eacctl) can walk the whole group from
	// any one member.
	Admin string
}

// Store is the cache behind a live node: the surface the request path,
// the ICP responder, and the persistence layer need. It is implemented
// by *cache.ShardedStore and by the single-threaded *cache.Store — the
// node wraps the latter in a one-shard concurrency-safe adapter
// (cache.SingleShard), so existing callers keep handing in a plain
// Store and get identical cache behaviour.
type Store interface {
	Get(url string, now time.Time) (cache.Document, bool)
	Peek(url string) (cache.Document, bool)
	Touch(url string, now time.Time) bool
	Contains(url string) bool
	Put(doc cache.Document, now time.Time) ([]cache.Eviction, error)
	ExpirationAge(now time.Time) time.Duration
	Capacity() int64
	Used() int64
	Len() int
	Evictions() int64
	Insertions() int64
	URLs() []string
	SetEventSink(fn func(cache.Event))
	RestoreEntry(doc cache.Document, enteredAt, lastHit time.Time, hits int64) error
	RestoreTracker(st cache.TrackerState)
}

// Config configures a Node.
type Config struct {
	// ID names the node for logs.
	ID string
	// ICPAddr and HTTPAddr are listen addresses ("127.0.0.1:0" picks a
	// free port).
	ICPAddr  string
	HTTPAddr string
	// Store is the node's cache: a *cache.ShardedStore for a node meant
	// to serve concurrent traffic, or a plain *cache.Store (wrapped in a
	// one-shard adapter internally). Required.
	Store Store
	// DiskDir, when set, adds a content-addressed blob tier below the
	// memory store (internal/blob): memory victims whose expiration age
	// says they still have life ahead demote to checksummed files under
	// this directory instead of exiting, and disk hits re-promote on
	// access — one logical store holding far more than memory allows.
	// Requires DiskCapacity.
	DiskDir string
	// DiskCapacity is the disk tier's byte budget. Required with DiskDir,
	// rejected without it; negative is rejected.
	DiskCapacity int64
	// DiskDemote selects the demotion admission rule: "ea" (the default —
	// demote only victims younger than the disk tier's own expiration
	// age, the paper's placement rule applied between tiers) or "always"
	// (spill every victim). Requires DiskDir when set.
	DiskDemote string
	// Scheme is the placement scheme. Required.
	Scheme core.Scheme
	// OriginAddr is the TCP address of an hproto origin server used to
	// resolve group-wide misses; empty means misses fail (unless a
	// parent is configured).
	OriginAddr string
	// ParentAddr is the fetch (TCP) address of a hierarchical parent
	// node. When set, group-wide misses are resolved through the parent
	// (paper §3.3) instead of directly against the origin.
	ParentAddr string
	// ICPTimeout bounds the query fan-out wait. Defaults to
	// DefaultICPTimeout.
	ICPTimeout time.Duration
	// Location selects ICP queries (default), Summary-Cache digests
	// fetched from peers over the fetch protocol (see DigestURL), or
	// consistent-hash home routing (resolve.LocateHash, incompatible
	// with ParentAddr).
	Location resolve.Location
	// HashName is this node's hash-ring member name under LocateHash;
	// empty defaults to the bound HTTP address. Must match what peers
	// put in Peer.Name for this node.
	HashName string
	// Digest tunes the summaries when Location is resolve.LocateDigest.
	Digest proxy.DigestConfig
	// DigestRefresh bounds how long a fetched peer digest is trusted.
	// Defaults to DefaultDigestRefresh.
	DigestRefresh time.Duration
	// DigestDeltaWindow is how many mutations the own digest's change
	// log retains: peers whose replica is at most this many generations
	// behind refresh with a compact delta instead of a full filter
	// transfer. 0 means digest.DefaultDeltaWindow; negative is rejected.
	DigestDeltaWindow int
	// DialTimeout bounds TCP connection establishment for every outbound
	// fetch (peers, parent, origin). Defaults to DefaultDialTimeout;
	// negative is rejected.
	DialTimeout time.Duration
	// FetchTimeout bounds a whole fetch exchange (request, response head,
	// body) on both the requester and responder side. Defaults to
	// DefaultFetchTimeout; negative is rejected.
	FetchTimeout time.Duration
	// FetchAttempts is how many times a parent/origin fetch is tried
	// before the request fails (transport errors only; a 404 is final).
	// Defaults to DefaultFetchAttempts; negative is rejected.
	FetchAttempts int
	// OriginConcurrency bounds how many parent/origin fetches may run at
	// once, so a slow upstream cannot absorb every goroutine. Acquiring a
	// slot is budgeted by FetchTimeout. Zero defaults to
	// DefaultOriginConcurrency; negative is rejected.
	OriginConcurrency int
	// MaxInflight bounds concurrent Request calls; beyond it the front
	// door sheds (ErrOverloaded) after at most ShedQueueWait. Zero
	// disables shedding; negative is rejected.
	MaxInflight int
	// ShedQueueWait is how long an over-MaxInflight request may wait for
	// a slot before being shed. Zero defaults to DefaultShedQueueWait;
	// negative is rejected. Requires MaxInflight when set.
	ShedQueueWait time.Duration
	// Health tunes the per-peer circuit breaker (thresholds, probe
	// backoff). The zero value uses the health package defaults.
	Health health.Config
	// EjectAfter, when positive, enables breaker-driven ejection: a peer
	// whose breaker stays dead this long is removed from the locator set
	// (ICP fan-out and hash homing) until an out-of-band probe succeeds,
	// at which point it is readmitted automatically. Zero disables
	// ejection; negative is rejected.
	EjectAfter time.Duration
	// ReadmitProbe spaces the out-of-band probes sent to ejected peers.
	// Defaults to DefaultReadmitProbe; requires EjectAfter when set;
	// negative is rejected.
	ReadmitProbe time.Duration
	// MigrateConcurrency bounds parallel handoff transfers during ring
	// rebalances and drain. Zero defaults to DefaultMigrateConcurrency;
	// negative is rejected.
	MigrateConcurrency int
	// MigrateRate caps handoff transfers per second, so migration never
	// starves the request path. Zero means unpaced; negative is rejected.
	MigrateRate int
	// JoinWarmup, under LocateHash, makes a freshly started node relay
	// without keeping copies for this long: it serves what it has and
	// accepts migration pushes, but refuses resolve-keeps and front-door
	// stores until the rest of the group has had time to converge on its
	// arrival — storing earlier could duplicate a copy a stale-view peer
	// still holds. Zero disables the warmup; negative is rejected.
	JoinWarmup time.Duration
	// DataDir, when set, makes the node crash-safe: cache contents,
	// per-document metadata, and the expiration-age tracker are journaled
	// to this directory and recovered on restart (see internal/persist).
	// The Store must be freshly built — recovered state is loaded into it
	// before the servers start. Empty disables persistence.
	DataDir string
	// SnapshotInterval is how often the node checkpoints (snapshot +
	// journal rotation). Zero defaults to DefaultSnapshotInterval;
	// negative is rejected. Requires DataDir.
	SnapshotInterval time.Duration
	// JournalBatch bounds the persistence layer's group-commit queue
	// (persist.Config.BatchFrames). Zero uses the persist default;
	// negative is rejected. Requires DataDir when set.
	JournalBatch int
	// Faults, when set, injects deterministic faults into every socket
	// the node opens — the ICP query socket, outbound fetch dials, and
	// accepted fetch conns — for chaos tests and manual chaos runs.
	Faults *faults.Injector
	// Obs, when set, makes the node observable: per-request trace spans
	// into the telemetry's ring, and counters/histograms/gauges into its
	// registry (hit mix, per-stage latencies, EA placement decisions,
	// breaker states, cache contention). Nil disables telemetry at zero
	// request-path cost.
	Obs *obs.Telemetry
	// Logger receives structured operational logs (request-path warnings
	// carry a request_id when Obs is set); nil discards them.
	Logger *slog.Logger
	// Now, when set, supplies the clock for cache-visible timestamps
	// (lookups, placement, expiration ages) — the sim↔live parity test
	// injects a trace-driven clock here. Socket deadlines and latency
	// metrics always use the real clock. Nil means time.Now.
	Now func() time.Time
}

// Result describes how one request was served by a live node.
type Result struct {
	Outcome metrics.Outcome
	// Size is the number of body bytes received/served.
	Size int64
	// Responder is the HTTP address of the cache that served a remote
	// hit, or "".
	Responder string
	// Stored reports whether this node kept a copy.
	Stored bool
	// Promoted reports whether the responder refreshed its copy instead
	// (the scheme's responder-side rule, echoed back by the engine).
	Promoted bool
	// Coalesced reports that this request rode a concurrent resolution of
	// the same URL as a single-flight follower instead of fetching itself.
	Coalesced bool
	// TraceID is the group-wide trace identifier when the request was
	// sampled ("" otherwise) — the handle for finding this request's
	// spans on every node it touched (/debug/trace?trace=...).
	TraceID string
}

// Node is a live cooperative cache node.
type Node struct {
	id            string
	scheme        core.Scheme
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
	health        *health.Tracker
	robust        metrics.Robustness
	dg            metrics.Digest
	faults        *faults.Injector
	obs           *obs.Telemetry
	om            *nodeObs
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
	// configured member list and the ejected set; epoch counts published
	// topologies; draining is set for good by DrainHandoff.
	mem struct {
		sync.Mutex
		members []Peer
		ejected map[string]*ejection
	}
	epoch        atomic.Int64
	draining     atomic.Bool
	warmUntil    time.Time // relay-only until then under LocateHash; zero when off
	ejectAfter   time.Duration
	readmitProbe time.Duration
	migrateConc  int
	migrateRate  int
	migrateKick  chan struct{}
	lastMig      atomic.Pointer[MigrationReport]
	drainMu      sync.Mutex

	digestMu sync.Mutex // guards digests (own summary + fetched filters)

	persister *persist.Persister
	snapEvery time.Duration
	recovery  *RecoveryReport

	icpServer *icp.Server
	icpClient *icp.Client
	httpLn    net.Listener

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// RecoveryReport describes a warm restart: what the persistence layer
// found on disk and what was actually loaded back into the store.
type RecoveryReport struct {
	persist.Report
	// Restored is what made it into the live store.
	Restored persist.RestoreStats
}

// New starts a node's ICP responder and fetch listener. Close releases
// both.
func New(cfg Config) (*Node, error) {
	if cfg.Store == nil {
		return nil, errors.New("netnode: nil store")
	}
	if cfg.Scheme == nil {
		return nil, errors.New("netnode: nil scheme")
	}
	if cfg.ICPTimeout <= 0 {
		cfg.ICPTimeout = DefaultICPTimeout
	}
	if cfg.DialTimeout < 0 {
		return nil, fmt.Errorf("netnode: negative DialTimeout %v", cfg.DialTimeout)
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.FetchTimeout < 0 {
		return nil, fmt.Errorf("netnode: negative FetchTimeout %v", cfg.FetchTimeout)
	}
	if cfg.FetchTimeout == 0 {
		cfg.FetchTimeout = DefaultFetchTimeout
	}
	if cfg.FetchAttempts < 0 {
		return nil, fmt.Errorf("netnode: negative FetchAttempts %d", cfg.FetchAttempts)
	}
	if cfg.FetchAttempts == 0 {
		cfg.FetchAttempts = DefaultFetchAttempts
	}
	if cfg.OriginConcurrency < 0 {
		return nil, fmt.Errorf("netnode: negative OriginConcurrency %d", cfg.OriginConcurrency)
	}
	if cfg.OriginConcurrency == 0 {
		cfg.OriginConcurrency = DefaultOriginConcurrency
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("netnode: negative MaxInflight %d", cfg.MaxInflight)
	}
	if cfg.ShedQueueWait < 0 {
		return nil, fmt.Errorf("netnode: negative ShedQueueWait %v", cfg.ShedQueueWait)
	}
	if cfg.ShedQueueWait > 0 && cfg.MaxInflight == 0 {
		return nil, errors.New("netnode: ShedQueueWait requires MaxInflight")
	}
	if cfg.MaxInflight > 0 && cfg.ShedQueueWait == 0 {
		cfg.ShedQueueWait = DefaultShedQueueWait
	}
	if cfg.EjectAfter < 0 {
		return nil, fmt.Errorf("netnode: negative EjectAfter %v", cfg.EjectAfter)
	}
	if cfg.ReadmitProbe < 0 {
		return nil, fmt.Errorf("netnode: negative ReadmitProbe %v", cfg.ReadmitProbe)
	}
	if cfg.ReadmitProbe > 0 && cfg.EjectAfter == 0 {
		return nil, errors.New("netnode: ReadmitProbe requires EjectAfter")
	}
	if cfg.EjectAfter > 0 && cfg.ReadmitProbe == 0 {
		cfg.ReadmitProbe = DefaultReadmitProbe
	}
	if cfg.MigrateConcurrency < 0 {
		return nil, fmt.Errorf("netnode: negative MigrateConcurrency %d", cfg.MigrateConcurrency)
	}
	if cfg.MigrateConcurrency == 0 {
		cfg.MigrateConcurrency = DefaultMigrateConcurrency
	}
	if cfg.MigrateRate < 0 {
		return nil, fmt.Errorf("netnode: negative MigrateRate %d", cfg.MigrateRate)
	}
	if cfg.JoinWarmup < 0 {
		return nil, fmt.Errorf("netnode: negative JoinWarmup %v", cfg.JoinWarmup)
	}
	if cfg.SnapshotInterval < 0 {
		return nil, fmt.Errorf("netnode: negative SnapshotInterval %v", cfg.SnapshotInterval)
	}
	if cfg.JournalBatch < 0 {
		return nil, fmt.Errorf("netnode: negative JournalBatch %d", cfg.JournalBatch)
	}
	if cfg.JournalBatch > 0 && cfg.DataDir == "" {
		return nil, errors.New("netnode: JournalBatch requires DataDir")
	}
	if cfg.SnapshotInterval > 0 && cfg.DataDir == "" {
		return nil, errors.New("netnode: SnapshotInterval requires DataDir")
	}
	if cfg.DataDir != "" && cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = DefaultSnapshotInterval
	}
	if cfg.DiskCapacity < 0 {
		return nil, fmt.Errorf("netnode: negative DiskCapacity %d", cfg.DiskCapacity)
	}
	if cfg.DiskCapacity > 0 && cfg.DiskDir == "" {
		return nil, errors.New("netnode: DiskCapacity requires DiskDir")
	}
	if cfg.DiskDir != "" && cfg.DiskCapacity == 0 {
		return nil, errors.New("netnode: DiskDir requires DiskCapacity")
	}
	if cfg.DiskDemote != "" && cfg.DiskDir == "" {
		return nil, errors.New("netnode: DiskDemote requires DiskDir")
	}
	demotePolicy, err := cache.ParseDemotePolicy(cfg.DiskDemote)
	if err != nil {
		return nil, fmt.Errorf("netnode: %w", err)
	}
	if cfg.Location == 0 {
		cfg.Location = resolve.LocateICP
	}
	if cfg.Location == resolve.LocateHash && cfg.ParentAddr != "" {
		// Hash routing partitions the URL space across the group; a
		// hierarchical parent would reintroduce a second copy holder.
		return nil, errors.New("netnode: hash location is incompatible with a parent")
	}
	if cfg.DigestDeltaWindow < 0 {
		return nil, fmt.Errorf("netnode: negative DigestDeltaWindow %d", cfg.DigestDeltaWindow)
	}
	if cfg.DigestDeltaWindow > 0 && cfg.Location != resolve.LocateDigest {
		return nil, errors.New("netnode: DigestDeltaWindow requires digest location")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	// Adopt the caller's store behind the concurrency-safe sharded API; a
	// plain Store becomes one shard behind one lock (identical behaviour).
	var store *cache.ShardedStore
	switch s := cfg.Store.(type) {
	case *cache.ShardedStore:
		store = s
	case *cache.Store:
		store = cache.SingleShard(s)
	default:
		return nil, fmt.Errorf("netnode: unsupported store type %T", cfg.Store)
	}
	// The tiered facade always fronts the memory store. Without DiskDir it
	// is a pure pass-through (identical behaviour and cost); with it, the
	// blob tier recovers its own index here — a warm restart that never
	// re-reads blob bodies — and the EA-aware controller starts demoting
	// memory victims that still have life ahead of them.
	var blobStore *blob.Store
	tcfg := cache.TieredConfig{Memory: store, Demote: demotePolicy}
	if cfg.DiskDir != "" {
		shape := store.TrackerState()
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
		scheme:        cfg.Scheme,
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
		ejectAfter:    cfg.EjectAfter,
		readmitProbe:  cfg.ReadmitProbe,
		migrateConc:   cfg.MigrateConcurrency,
		migrateRate:   cfg.MigrateRate,
		icpClient:     icp.NewClient(),
		closed:        make(chan struct{}),
	}
	n.mem.ejected = make(map[string]*ejection)
	if cfg.JoinWarmup > 0 && cfg.Location == resolve.LocateHash {
		n.warmUntil = time.Now().Add(cfg.JoinWarmup)
	}
	if cfg.MaxInflight > 0 {
		n.inflight = make(chan struct{}, cfg.MaxInflight)
	}
	n.obs = cfg.Obs
	n.om = newNodeObs(n, cfg.Obs)

	// The breaker feeds the robustness counters; a user callback (tests)
	// is chained after them.
	healthCfg := cfg.Health
	userStateChange := healthCfg.OnStateChange
	healthCfg.OnStateChange = func(peer string, from, to health.State) {
		switch {
		case to == health.Dead:
			n.robust.BreakerOpen()
		case from == health.Dead:
			n.robust.BreakerClose()
		}
		n.warn("peer breaker state change", nil, "peer", peer, "from", from, "to", to)
		if userStateChange != nil {
			userStateChange(peer, from, to)
		}
	}
	n.health = health.NewTracker(healthCfg)

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
		ds, err := newDigestState(cfg.Digest, cfg.Store.Capacity()+cfg.DiskCapacity, cfg.DigestRefresh, cfg.DigestDeltaWindow)
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

	// Recover persisted state into the store before any server can touch
	// it, then journal every mutation from here on. Persistence observes
	// the store through its event sink, so the replacement policies and
	// the request path stay oblivious to it.
	if cfg.DataDir != "" {
		p, err := persist.Open(persist.Config{
			Dir:         cfg.DataDir,
			Logger:      stdLogger,
			BatchFrames: cfg.JournalBatch,
		})
		if err != nil {
			return nil, fmt.Errorf("netnode: %w", err)
		}
		stats := persist.Restore(n.store, p.RecoveredState())
		if stats.Skipped > 0 {
			n.warn("recovery skipped entries that no longer fit", nil, "skipped", stats.Skipped)
		}
		if stats.DiskLost > 0 {
			n.warn("recovery lost disk-tier residency claims", nil,
				"lost", stats.DiskLost, "restored", stats.DiskRestored)
		}
		n.persister = p
		n.snapEvery = cfg.SnapshotInterval
		n.recovery = &RecoveryReport{Report: p.Report(), Restored: stats}
		n.om.setRecovery(*n.recovery)
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
	if n.om != nil {
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

	ln, err := net.Listen("tcp", cfg.HTTPAddr)
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
	// one URL are coalesced single-flight; the callbacks feed the
	// robustness counters and telemetry.
	co := resolve.NewCoalescer()
	co.OnFollower = func(string) {
		n.robust.Coalesced()
		n.om.coalesced()
	}
	co.OnElect = func(_ string, retry bool) {
		n.robust.LeaderElection()
		if retry {
			n.robust.LeaderRetry()
		}
		n.om.leaderElection(retry)
	}
	n.engine = &resolve.Engine{
		ID:              "netnode " + n.id,
		Store:           nodeStore{n},
		Scheme:          n.scheme,
		Locator:         nodeLocator{n},
		Transport:       nodeTransport{n},
		Hooks:           nodeHooks{n},
		Coalescer:       co,
		DegradeToOrigin: true,
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
	if n.ejectAfter > 0 {
		n.wg.Add(1)
		go n.membershipLoop()
	}
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
// AddPeer/RemovePeer for incremental changes) and drops breaker and
// ejection state for peers that left it. The active set is published as
// an immutable snapshot behind an atomic pointer: the request path reads
// it with one atomic load and no per-request copy, and never observes a
// half-updated set.
func (n *Node) SetPeers(peers []Peer) {
	n.mem.Lock()
	defer n.mem.Unlock()
	n.mem.members = append([]Peer(nil), peers...)
	if len(n.mem.ejected) > 0 {
		present := make(map[string]bool, len(peers))
		for _, p := range peers {
			present[p.HTTP] = true
		}
		for addr := range n.mem.ejected {
			if !present[addr] {
				delete(n.mem.ejected, addr)
			}
		}
	}
	n.publishLocked()
}

// peerSet is one published peer snapshot: the active peers and, index for
// index, their ICP addresses — the slice a healthy group's fan-out hands
// to the ICP client as-is. Immutable once stored.
type peerSet struct {
	list []Peer
	icp  []*net.UDPAddr
}

// peerList returns the current immutable peer snapshot. Callers must not
// mutate it.
func (n *Node) peerList() []Peer {
	if p := n.peers.Load(); p != nil {
		return p.list
	}
	return nil
}

// Robustness returns the node's degradation counters: peer failures,
// retries, fallbacks to parent/origin, and breaker transitions.
func (n *Node) Robustness() metrics.RobustnessSnapshot { return n.robust.Snapshot() }

// PeerHealth returns the breaker state of every tracked peer, keyed by the
// peer's fetch (HTTP) address.
func (n *Node) PeerHealth() []health.PeerStatus { return n.health.Snapshot() }

// Close stops both servers, waits for in-flight handlers, checkpoints
// persistent state, and releases the data directory. It is idempotent and
// safe to call concurrently — with other Close/Drain calls and with an
// in-flight Request, which at worst fails with a connection error.
func (n *Node) Close() error { return n.shutdown(0) }

// Drain is the graceful variant of Close: stop accepting new work
// immediately, give in-flight handlers up to timeout to finish (instead
// of waiting indefinitely), write a final snapshot, then release
// everything. Handlers still running at the deadline keep their journal
// appends — recovery replays them on top of the final snapshot.
func (n *Node) Drain(timeout time.Duration) error { return n.shutdown(timeout) }

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
		// then does the final checkpoint capture and rotate, so the
		// snapshot's disk-residency claims are backed by durable blobs.
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
// the node runs without persistence.
func (n *Node) Recovery() (RecoveryReport, bool) {
	if n.recovery == nil {
		return RecoveryReport{}, false
	}
	return *n.recovery, true
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
	start := time.Now()
	var st persist.State
	err := n.store.Checkpoint(func(view cache.StoreView) error {
		st = persist.CaptureState(view)
		return n.persister.Rotate()
	})
	if err == nil {
		err = n.persister.WriteSnapshot(st)
	}
	n.om.observeCheckpoint(time.Since(start), err)
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

// Request serves a client request end-to-end over the real protocols:
// local lookup, ICP fan-out, remote or origin fetch, placement decision.
// With telemetry configured it also records a trace (one span per stage,
// with the EA decision's two expiration ages on the placement span) and the
// outcome/latency metrics.
func (n *Node) Request(url string, sizeHint int64) (Result, error) {
	// Front-door overload gate: refuse fast, before any of the trace or
	// metrics machinery spends work on a request the node cannot absorb.
	if n.inflight != nil {
		if err := n.admit(); err != nil {
			return Result{}, err
		}
		defer func() { <-n.inflight }()
	}
	start := time.Now()
	tr := n.obs.StartTrace(n.id, url)
	res, err := n.serveRequest(tr, url, sizeHint)
	n.om.observeRequest(res, err, time.Since(start))
	if tr != nil {
		res.TraceID = tr.TraceID
		if err != nil {
			tr.Outcome = outcomeError
			tr.Err = err.Error()
		} else {
			tr.Outcome = res.Outcome.String()
			tr.SizeBytes = res.Size
			tr.Responder = res.Responder
			tr.Stored = res.Stored
		}
		n.obs.Finish(tr)
	}
	return res, err
}

// serveRequest is the request lifecycle proper, delegated to the shared
// resolution engine (internal/resolve) — the same decision code the
// simulator runs. tr may be nil (telemetry off); it rides through the
// engine as the opaque request context, and every trace entry point is
// nil-safe. No global lock anywhere on the path: the store serialises
// per shard, the peer and hash-ring snapshots are immutable and swapped
// atomically, and the engine itself is stateless per request.
func (n *Node) serveRequest(tr *obs.Trace, url string, sizeHint int64) (Result, error) {
	res, err := n.engine.Resolve(tr, url, sizeHint, n.now())
	if err != nil {
		return Result{}, err
	}
	return Result{
		Outcome:   res.Outcome,
		Size:      res.Doc.Size,
		Responder: res.Responder,
		Stored:    res.Stored,
		Promoted:  res.Promoted,
		Coalesced: res.Coalesced,
	}, nil
}

// admit takes an in-flight slot, waiting at most shedWait for one before
// shedding the request. Only called when MaxInflight is configured.
func (n *Node) admit() error {
	select {
	case n.inflight <- struct{}{}:
		return nil
	default:
	}
	timer := time.NewTimer(n.shedWait)
	defer timer.Stop()
	select {
	case n.inflight <- struct{}{}:
		return nil
	case <-timer.C:
		n.robust.Shed()
		n.om.shed()
		return fmt.Errorf("%w (%d in flight, waited %v)", ErrOverloaded, cap(n.inflight), n.shedWait)
	}
}

// acquireUpstream takes an origin-semaphore slot, so at most
// OriginConcurrency parent/origin fetches run at once. A contended
// acquire is counted and bounded by the request's remaining fetch budget
// (FetchTimeout) — a saturated upstream fails the request instead of
// parking goroutines forever.
func (n *Node) acquireUpstream(tr *obs.Trace) error {
	select {
	case n.originSem <- struct{}{}:
		return nil
	default:
	}
	n.robust.OriginWait()
	start := time.Now()
	timer := time.NewTimer(n.fetchTimeout)
	defer timer.Stop()
	select {
	case n.originSem <- struct{}{}:
		n.om.observeUpstreamWait(time.Since(start))
		return nil
	case <-timer.C:
		err := fmt.Errorf("netnode %s: upstream concurrency limit %d saturated for %v", n.id, cap(n.originSem), n.fetchTimeout)
		n.warn("upstream semaphore saturated", tr, "limit", cap(n.originSem), "waited", n.fetchTimeout)
		return err
	}
}

func (n *Node) releaseUpstream() { <-n.originSem }

// recordFanout feeds the fan-out's per-peer evidence to the breaker: every
// reply (hit or miss) is a success, an unsendable datagram is a failure,
// and — only when the query ran out its full timeout — silence is a
// failure too. A query resolved early by a hit says nothing about peers
// that simply had not answered yet.
func (n *Node) recordFanout(active []Peer, res icp.Result) {
	// heard[i] marks active[i] as accounted for; it stays on the stack
	// for any group this side of 16 peers.
	var stack [16]bool
	heard := stack[:]
	if len(active) > len(stack) {
		heard = make([]bool, len(active))
	}
	for _, a := range res.Answered {
		if i := peerByICP(active, a); i >= 0 {
			heard[i] = true
			n.health.ReportSuccess(active[i].HTTP)
		}
	}
	for _, a := range res.SendFailed {
		if i := peerByICP(active, a); i >= 0 {
			heard[i] = true
			n.health.ReportFailure(active[i].HTTP)
			n.robust.PeerFailure()
		}
	}
	silent := 0
	if res.TimedOut {
		for i, p := range active {
			if !heard[i] {
				silent++
				n.health.ReportFailure(p.HTTP)
				n.robust.PeerFailure()
			}
		}
	}
	n.om.observeFanout(len(res.Answered), silent, len(res.SendFailed))
}

// peerByICP returns the index of the peer whose ICP address is a, or -1.
func peerByICP(peers []Peer, a *net.UDPAddr) int {
	for i, p := range peers {
		if udpAddrEqual(p.ICP, a) {
			return i
		}
	}
	return -1
}

// fetchUpstream fetches from the parent or origin with the configured
// retry budget, under the origin-concurrency semaphore. Transport errors
// are retried; a NotFound answer is final (repeating the question will
// not change it).
func (n *Node) fetchUpstream(tr *obs.Trace, addr, url string, sizeHint int64, reqAge time.Duration, resolve bool) (int64, time.Duration, string, error) {
	if err := n.acquireUpstream(tr); err != nil {
		return 0, 0, "", err
	}
	defer n.releaseUpstream()
	var lastErr error
	for attempt := 0; attempt < n.fetchAttempts; attempt++ {
		if attempt > 0 {
			n.robust.Retry()
		}
		size, age, source, err := n.fetchFrom(tr, addr, url, sizeHint, reqAge, resolve)
		if err == nil {
			return size, age, source, nil
		}
		lastErr = err
		if errors.Is(err, errNotFound) {
			break
		}
		n.warn("upstream fetch attempt failed", tr,
			"url", url, "upstream", addr,
			"attempt", attempt+1, "attempts", n.fetchAttempts, "err", err)
	}
	return 0, 0, "", lastErr
}

func (n *Node) putIfFits(doc cache.Document) bool {
	_, err := n.store.Put(doc, n.now())
	return err == nil
}

// handleICP answers neighbours' queries against the local cache without
// touching replacement state.
func (n *Node) handleICP(url string) icp.Opcode {
	if n.store.Contains(url) {
		return icp.OpHit
	}
	return icp.OpMiss
}

func (n *Node) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.httpLn.Accept()
		if err != nil {
			select {
			case <-n.closed:
				return
			default:
			}
			n.warn("accept failed", nil, "err", err)
			continue
		}
		n.wg.Add(1)
		go func() {
			defer n.wg.Done()
			n.serveConn(conn)
		}()
	}
}

// serveConn is the responder side of the inter-proxy fetch: serve the
// document with this node's expiration age piggybacked on the response,
// applying the responder-side placement rule against the age piggybacked
// on the request. A request flagged Resolve makes this node act as a
// hierarchical parent: on a local miss it fetches the document from its
// own upstream, keeps a copy only if the §3.3 parent rule says so, and
// reports whether the body came from a cache or the origin.
func (n *Node) serveConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(n.fetchTimeout))

	br := getReader(conn)
	req, err := hproto.ReadRequest(br)
	if err != nil {
		putReader(br)
		n.warn("bad fetch request", nil, "err", err)
		return
	}
	if req.AgeClamped {
		n.robust.WireClamp()
		n.warn("clamped bad requester age", nil, "remote", conn.RemoteAddr().String())
	}
	if req.Push {
		// Migration handoff: the body still sits (partly) in the bufio
		// reader, so it is drained before the reader is pooled again.
		n.servePush(conn, br, req)
		putReader(br)
		return
	}
	putReader(br)

	// The reserved digest URL serves this node's own cache digest —
	// bare for the legacy full transfer, ?since=<gen> for the versioned
	// delta sync.
	if isDigestURL(req.URL) {
		n.serveDigestRequest(conn, req.URL)
		return
	}

	// Remote-parented tracing: a sampled requester piggybacks its trace
	// context on the request, and this node continues the same trace —
	// same group-wide trace ID, the requester's record as parent — so the
	// whole exchange stitches into one timeline. A malformed or looping
	// context is dropped and counted, never fatal: tracing must not be
	// able to break the fetch path.
	var rtr *obs.Trace
	if req.Trace != "" {
		tc, perr := obs.ParseTraceContext(req.Trace)
		switch {
		case perr != nil:
			n.robust.TraceClamp()
			n.warn("dropped malformed trace context", nil, "remote", conn.RemoteAddr().String())
		case tc.Hop >= obs.MaxTraceHops:
			n.robust.TraceClamp()
			n.warn("dropped trace context at hop limit", nil, "trace", tc.TraceID)
		default:
			rtr = n.obs.StartRemoteTrace(n.id, req.URL, tc)
		}
	}
	serveSpan := rtr.OpenSpan(obs.StageServe, time.Now())

	respAge := n.store.ExpirationAge(n.now())
	var (
		doc cache.Document
		ok  bool
	)
	if n.location == resolve.LocateHash {
		// Hash routing: this node is the URL's home and owns the
		// group's only copy — serving it is a real hit for the home's
		// replacement state, not a negotiable promotion.
		doc, ok = n.store.Get(req.URL, n.now())
	} else {
		doc, ok = n.store.Peek(req.URL)
		if ok {
			// The responder-side EA rule: refresh this copy's replacement
			// state iff the requester's cache is under more pressure than
			// ours (paper §3.4). Counted, audited, and stamped on the
			// remote-parented trace like every placement decision.
			if n.scheme.OnRemoteHit(req.RequesterAge, respAge).PromoteAtResponder {
				n.store.Touch(req.URL, n.now())
				n.om.decision(roleResponder, decisionPromote)
				n.auditDecision(rtr, roleResponder, req.URL, obs.DecisionPromote, doc.Size, respAge, req.RequesterAge)
			} else {
				n.om.decision(roleResponder, decisionReject)
				n.auditDecision(rtr, roleResponder, req.URL, obs.DecisionReject, doc.Size, respAge, req.RequesterAge)
			}
		}
	}

	switch {
	case ok:
		err = hproto.WriteResponse(conn, hproto.Response{
			Status:        hproto.StatusOK,
			ResponderAge:  respAge,
			ContentLength: doc.Size,
			Source:        hproto.SourceCache,
			Trace:         echoContext(rtr),
		}, zeroReader(doc.Size))
		if rtr != nil {
			rtr.Outcome = outcomeServeHit
			rtr.SizeBytes = doc.Size
		}
	case req.Resolve:
		err = n.resolveAndServe(conn, req, respAge, rtr)
	default:
		err = hproto.WriteResponse(conn, hproto.Response{
			Status:       hproto.StatusNotFound,
			ResponderAge: respAge,
			Trace:        echoContext(rtr),
		}, nil)
		if rtr != nil {
			rtr.Outcome = outcomeServeMiss
		}
	}
	if err != nil {
		n.warn("write fetch response failed", rtr, "err", err)
		rtr.SpanErr(err)
	}
	if rtr != nil {
		rtr.CloseSpan(serveSpan, time.Since(rtr.Start))
		rtr.RequesterAgeMS = obs.AgeMS(req.RequesterAge)
		rtr.ResponderAgeMS = obs.AgeMS(respAge)
		n.obs.Finish(rtr)
	}
}

// Responder-side trace outcomes (requester-side ones come from
// metrics.Outcome via Result).
const (
	outcomeServeHit     = "serve-hit"
	outcomeServeMiss    = "serve-miss"
	outcomeServeResolve = "serve-resolve"
)

// echoContext is the X-Trace-Context value echoed on responses: this
// node's own record as the parent, so the requester can point at the
// responder's span. Empty ("" — header omitted) for untraced exchanges.
func echoContext(rtr *obs.Trace) string {
	if rtr == nil {
		return ""
	}
	return rtr.Context().String()
}

// resolveAndServe is the parent's miss path: fetch the document from this
// node's own parent (recursively, preserving the source tag) or origin,
// store a copy iff this node's expiration age strictly exceeds the child's
// (core.Scheme.OnParentResolve), and relay the body. rtr is the
// remote-parented trace continued from the requester's context (nil for
// untraced exchanges); the upstream fetch rides on it, so a recursive
// parent chain propagates the same trace ID all the way up.
func (n *Node) resolveAndServe(conn net.Conn, req hproto.Request, myAge time.Duration, rtr *obs.Trace) error {
	var (
		size   int64
		source string
		err    error
	)
	switch {
	case n.parentAddr != "":
		size, _, source, err = n.fetchUpstream(rtr, n.parentAddr, req.URL, req.SizeHint, myAge, true)
	case n.originAddr != "":
		size, _, _, err = n.fetchUpstream(rtr, n.originAddr, req.URL, req.SizeHint, myAge, false)
		source = hproto.SourceOrigin
	default:
		return hproto.WriteResponse(conn, hproto.Response{
			Status:       hproto.StatusNotFound,
			ResponderAge: myAge,
			Trace:        echoContext(rtr),
		}, nil)
	}
	if err != nil {
		n.warn("parent resolve failed", rtr, "url", req.URL, "err", err)
		return hproto.WriteResponse(conn, hproto.Response{
			Status:       hproto.StatusNotFound,
			ResponderAge: myAge,
			Trace:        echoContext(rtr),
		}, nil)
	}
	keep := n.scheme.OnParentResolve(myAge, req.RequesterAge)
	if n.location == resolve.LocateHash {
		// The (acting) home keeps every document it resolves — the
		// group's only copy must land here — but only for requesters
		// whose ring view matches this node's (see mayKeepResolved);
		// a stale-view requester gets the body relayed without a store.
		keep = n.mayKeepResolved(req.RingFP)
	}
	if n.draining.Load() {
		keep = false
	}
	n.om.decision(roleParent, decisionOf(keep))
	n.auditDecision(rtr, roleParent, req.URL, decisionNames[decisionOf(keep)], size, myAge, req.RequesterAge)
	if keep {
		n.putIfFits(cache.Document{URL: req.URL, Size: size})
	}
	if rtr != nil {
		rtr.Outcome = outcomeServeResolve
		rtr.SizeBytes = size
		rtr.Stored = keep
	}
	return hproto.WriteResponse(conn, hproto.Response{
		Status:        hproto.StatusOK,
		ResponderAge:  myAge,
		ContentLength: size,
		Source:        source,
		Trace:         echoContext(rtr),
	}, zeroReader(size))
}

// warn emits one structured operational warning, tagged with the node ID
// and — when the call sits on a traced request path — the request ID, so
// log lines join up with /debug/trace entries.
func (n *Node) warn(msg string, tr *obs.Trace, attrs ...any) {
	if n.logger == nil {
		return
	}
	attrs = append(attrs, "node", n.id)
	if tr != nil {
		attrs = append(attrs, "request_id", tr.ID)
	}
	n.logger.Warn(msg, attrs...)
}

// errNotFound marks a responder that answered the exchange but does not
// hold (and could not resolve) the document — an application-level miss,
// not a transport failure, so it is never retried and never counts
// against the peer's health.
var errNotFound = errors.New("netnode: document not at responder")

// dial opens the TCP conn for one fetch, through the fault injector when
// one is configured.
func (n *Node) dial(addr string) (net.Conn, error) {
	if n.faults != nil {
		return n.faults.DialTimeout("tcp", addr, n.dialTimeout)
	}
	return net.DialTimeout("tcp", addr, n.dialTimeout)
}

// fetchFrom performs one hproto GET against addr, discarding the body and
// returning its length, the piggybacked responder age, and the body's
// source (cache or origin; an absent header means cache). A non-OK status
// maps to errNotFound; a body shorter than advertised maps to
// hproto.ErrTruncatedBody. A sampled trace's context rides the request
// (X-Trace-Context) so the responder records a remote-parented leg of
// the same trace, and the responder's echoed record is annotated back
// onto tr.
func (n *Node) fetchFrom(tr *obs.Trace, addr, url string, sizeHint int64, requesterAge time.Duration, rslv bool) (int64, time.Duration, string, error) {
	conn, err := n.dial(addr)
	if err != nil {
		return 0, 0, "", fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(n.fetchTimeout))

	req := hproto.Request{
		URL:          url,
		RequesterAge: requesterAge,
		SizeHint:     sizeHint,
		Resolve:      rslv,
	}
	if tr != nil && tr.TraceID != "" {
		req.Trace = tr.Context().String()
	}
	if rslv && n.location == resolve.LocateHash {
		if h := n.hash.Load(); h != nil {
			// The topology fingerprint rides along so the responder can
			// tell failover (matching views) from staleness (mismatch)
			// when deciding whether to keep the resolved copy.
			req.RingFP = h.Fingerprint
		}
	}
	if err := hproto.WriteRequest(conn, req); err != nil {
		return 0, 0, "", err
	}
	br := getReader(conn)
	defer putReader(br)
	resp, err := hproto.ReadResponse(br)
	if err != nil {
		return 0, 0, "", err
	}
	if resp.AgeClamped {
		n.robust.WireClamp()
		n.warn("clamped bad responder age", nil, "responder", addr)
	}
	if resp.Trace != "" && tr != nil {
		if rc, perr := obs.ParseTraceContext(resp.Trace); perr == nil {
			// The responder's echoed record ID: the cross-node edge the
			// stitcher draws from this fetch span to the responder's leg.
			tr.Annotate("remote_id", rc.ParentID)
		} else {
			n.robust.TraceClamp()
		}
	}
	if resp.Status != hproto.StatusOK {
		return 0, resp.ResponderAge, "", fmt.Errorf("fetch %s from %s: status %d: %w", url, addr, resp.Status, errNotFound)
	}
	if _, err := io.CopyN(io.Discard, br, resp.ContentLength); err != nil {
		return 0, resp.ResponderAge, "", fmt.Errorf("read body from %s: %w: %v", addr, hproto.ErrTruncatedBody, err)
	}
	source := resp.Source
	if source == "" {
		source = hproto.SourceCache
	}
	return resp.ContentLength, resp.ResponderAge, source, nil
}

// Serve-path pools. Every accepted fetch conn needs a bufio.Reader for
// the request line and a scratch buffer for the body; both are recycled
// across connections so steady-state remote-hit serving allocates
// nothing per request.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReader(nil) }}
	// zeroBufPool holds pre-zeroed body chunks. Bodies are synthetic
	// zeros in this reproduction, so writers send straight from the
	// pooled chunk and never dirty it.
	zeroBufPool = sync.Pool{New: func() any {
		b := make([]byte, 32*1024)
		return &b
	}}
)

// getReader borrows a pooled bufio.Reader bound to r; return it with
// putReader once the parse is done.
func getReader(r io.Reader) *bufio.Reader {
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

func putReader(br *bufio.Reader) {
	br.Reset(nil) // drop the conn reference while pooled
	readerPool.Put(br)
}

// zeroReader streams n zero bytes; cached bodies are synthetic in this
// reproduction (the simulator tracks sizes, not payloads). It implements
// io.WriterTo, so hproto.WriteResponse streams it from a pooled chunk
// instead of allocating a copy buffer per response.
func zeroReader(n int64) io.Reader {
	return &zeroBody{remaining: n}
}

type zeroBody struct{ remaining int64 }

func (z *zeroBody) Read(p []byte) (int, error) {
	if z.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > z.remaining {
		p = p[:z.remaining]
	}
	for i := range p {
		p[i] = 0
	}
	z.remaining -= int64(len(p))
	return len(p), nil
}

func (z *zeroBody) WriteTo(w io.Writer) (int64, error) {
	bp := zeroBufPool.Get().(*[]byte)
	defer zeroBufPool.Put(bp)
	buf := *bp
	var written int64
	for z.remaining > 0 {
		chunk := int64(len(buf))
		if chunk > z.remaining {
			chunk = z.remaining
		}
		nn, err := w.Write(buf[:chunk])
		written += int64(nn)
		z.remaining -= int64(nn)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

var (
	_ io.Reader   = (*zeroBody)(nil)
	_ io.WriterTo = (*zeroBody)(nil)
)

// OriginServer is an hproto origin that serves any URL with a body of the
// hinted size (or 4KB), standing in for the web servers behind the group.
type OriginServer struct {
	ln     net.Listener
	logger *slog.Logger
	wg     sync.WaitGroup
	closed chan struct{}

	fetches atomic.Int64
}

// NewOriginServer starts an origin on addr ("127.0.0.1:0" for tests).
func NewOriginServer(addr string, logger *slog.Logger) (*OriginServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netnode: origin listen %q: %w", addr, err)
	}
	o := &OriginServer{ln: ln, logger: logger, closed: make(chan struct{})}
	o.wg.Add(1)
	go o.acceptLoop()
	return o, nil
}

// Addr returns the origin's TCP address.
func (o *OriginServer) Addr() string { return o.ln.Addr().String() }

// Fetches returns how many documents the origin served — the traffic the
// cache group failed to absorb.
func (o *OriginServer) Fetches() int64 { return o.fetches.Load() }

// Close stops the origin.
func (o *OriginServer) Close() error {
	select {
	case <-o.closed:
		return nil
	default:
	}
	close(o.closed)
	err := o.ln.Close()
	o.wg.Wait()
	return err
}

func (o *OriginServer) acceptLoop() {
	defer o.wg.Done()
	for {
		conn, err := o.ln.Accept()
		if err != nil {
			select {
			case <-o.closed:
				return
			default:
			}
			if o.logger != nil {
				o.logger.Warn("origin accept failed", "err", err)
			}
			continue
		}
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.serveConn(conn)
		}()
	}
}

func (o *OriginServer) serveConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	br := getReader(conn)
	req, err := hproto.ReadRequest(br)
	putReader(br)
	if err != nil {
		return
	}
	size := req.SizeHint
	if size <= 0 {
		size = 4096
	}
	o.fetches.Add(1)
	_ = hproto.WriteResponse(conn, hproto.Response{
		Status:        hproto.StatusOK,
		ResponderAge:  cache.NoContention, // origins have no cache contention
		ContentLength: size,
		Source:        hproto.SourceOrigin,
	}, zeroReader(size))
}
