package netnode

import (
	"errors"
	"fmt"
	"log/slog"
	"net"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/faults"
	"eacache/internal/obs"
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

// DefaultDeadAfter is how many consecutive failed exchanges open a peer's
// breaker when Config.DeadAfter is left zero.
const DefaultDeadAfter = 3

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

// Config configures a Node.
type Config struct {
	// ID names the node for logs.
	ID string
	// ICPAddr and HTTPAddr are listen addresses ("127.0.0.1:0" picks a
	// free port).
	ICPAddr  string
	HTTPAddr string
	// Store is the node's cache; Shards: 1 gives the single-threaded
	// cache.Store's behaviour bit for bit. Required.
	Store *cache.ShardedStore
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
	// DeadAfter is how many consecutive failed exchanges with a peer
	// (ICP silence through a full timeout, an unsendable query, a failed
	// dial or fetch) open its breaker: the peer is dead, left out of
	// every locator and probed only out of band, until any success
	// closes the breaker again. Zero defaults to DefaultDeadAfter;
	// negative is rejected.
	DeadAfter int
	// EjectAfter is breaker-driven ejection's grace window: a peer whose
	// breaker stays dead this long is also removed from the locator set
	// (so the hash ring re-homes its URLs) until a probe succeeds, at
	// which point it is readmitted automatically. Zero derives it as
	// 2 × FetchTimeout (10s at the defaults). Negative is rejected.
	EjectAfter time.Duration
	// ReadmitProbe spaces the out-of-band probes sent to each dead or
	// ejected peer. Zero derives it as DialTimeout / 4 (500ms at the
	// defaults). Negative is rejected.
	ReadmitProbe time.Duration
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

// validate rejects the Config combinations New cannot run and fills in the
// defaults of the fields left zero, in place. It returns the parsed
// DiskDemote rule.
func (cfg *Config) validate() (cache.DemotePolicy, error) {
	if cfg.Store == nil {
		return 0, errors.New("netnode: nil store")
	}
	if cfg.Scheme == nil {
		return 0, errors.New("netnode: nil scheme")
	}
	if cfg.ICPTimeout <= 0 {
		cfg.ICPTimeout = DefaultICPTimeout
	}
	if cfg.DialTimeout < 0 {
		return 0, fmt.Errorf("netnode: negative DialTimeout %v", cfg.DialTimeout)
	}
	if cfg.DialTimeout == 0 {
		cfg.DialTimeout = DefaultDialTimeout
	}
	if cfg.FetchTimeout < 0 {
		return 0, fmt.Errorf("netnode: negative FetchTimeout %v", cfg.FetchTimeout)
	}
	if cfg.FetchTimeout == 0 {
		cfg.FetchTimeout = DefaultFetchTimeout
	}
	if cfg.FetchAttempts < 0 {
		return 0, fmt.Errorf("netnode: negative FetchAttempts %d", cfg.FetchAttempts)
	}
	if cfg.FetchAttempts == 0 {
		cfg.FetchAttempts = DefaultFetchAttempts
	}
	if cfg.OriginConcurrency < 0 {
		return 0, fmt.Errorf("netnode: negative OriginConcurrency %d", cfg.OriginConcurrency)
	}
	if cfg.OriginConcurrency == 0 {
		cfg.OriginConcurrency = DefaultOriginConcurrency
	}
	if cfg.MaxInflight < 0 {
		return 0, fmt.Errorf("netnode: negative MaxInflight %d", cfg.MaxInflight)
	}
	if cfg.ShedQueueWait < 0 {
		return 0, fmt.Errorf("netnode: negative ShedQueueWait %v", cfg.ShedQueueWait)
	}
	if cfg.ShedQueueWait > 0 && cfg.MaxInflight == 0 {
		return 0, errors.New("netnode: ShedQueueWait requires MaxInflight")
	}
	if cfg.MaxInflight > 0 && cfg.ShedQueueWait == 0 {
		cfg.ShedQueueWait = DefaultShedQueueWait
	}
	if cfg.DeadAfter < 0 {
		return 0, fmt.Errorf("netnode: negative DeadAfter %d", cfg.DeadAfter)
	}
	if cfg.DeadAfter == 0 {
		cfg.DeadAfter = DefaultDeadAfter
	}
	if cfg.EjectAfter < 0 {
		return 0, fmt.Errorf("netnode: negative EjectAfter %v", cfg.EjectAfter)
	}
	if cfg.EjectAfter == 0 {
		cfg.EjectAfter = 2 * cfg.FetchTimeout
	}
	if cfg.ReadmitProbe < 0 {
		return 0, fmt.Errorf("netnode: negative ReadmitProbe %v", cfg.ReadmitProbe)
	}
	if cfg.ReadmitProbe == 0 {
		cfg.ReadmitProbe = cfg.DialTimeout / 4
	}
	if cfg.SnapshotInterval < 0 {
		return 0, fmt.Errorf("netnode: negative SnapshotInterval %v", cfg.SnapshotInterval)
	}
	if cfg.SnapshotInterval > 0 && cfg.DataDir == "" {
		return 0, errors.New("netnode: SnapshotInterval requires DataDir")
	}
	if cfg.DataDir != "" && cfg.SnapshotInterval == 0 {
		cfg.SnapshotInterval = DefaultSnapshotInterval
	}
	if cfg.DiskCapacity < 0 {
		return 0, fmt.Errorf("netnode: negative DiskCapacity %d", cfg.DiskCapacity)
	}
	if cfg.DiskCapacity > 0 && cfg.DiskDir == "" {
		return 0, errors.New("netnode: DiskCapacity requires DiskDir")
	}
	if cfg.DiskDir != "" && cfg.DiskCapacity == 0 {
		return 0, errors.New("netnode: DiskDir requires DiskCapacity")
	}
	if cfg.DiskDemote != "" && cfg.DiskDir == "" {
		return 0, errors.New("netnode: DiskDemote requires DiskDir")
	}
	demote, err := cache.ParseDemotePolicy(cfg.DiskDemote)
	if err != nil {
		return 0, fmt.Errorf("netnode: %w", err)
	}
	if cfg.Location == 0 {
		cfg.Location = resolve.LocateICP
	}
	if cfg.Location == resolve.LocateHash && cfg.ParentAddr != "" {
		// Hash routing partitions the URL space across the group; a
		// hierarchical parent would reintroduce a second copy holder.
		return 0, errors.New("netnode: hash location is incompatible with a parent")
	}
	if cfg.DigestDeltaWindow < 0 {
		return 0, fmt.Errorf("netnode: negative DigestDeltaWindow %d", cfg.DigestDeltaWindow)
	}
	if cfg.DigestDeltaWindow > 0 && cfg.Location != resolve.LocateDigest {
		return 0, errors.New("netnode: DigestDeltaWindow requires digest location")
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return demote, nil
}
