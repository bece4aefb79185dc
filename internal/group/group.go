// Package group wires proxies into the two cooperative caching
// architectures the paper discusses: the distributed architecture (all
// caches are peers at the same level, the configuration of every experiment
// in §4) and the hierarchical architecture (leaves share a parent). It also
// provides client-to-proxy routing and group-level inspection (replication
// factor, aggregate expiration age).
package group

import (
	"fmt"
	"hash/fnv"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/obs"
	"eacache/internal/proxy"
	"eacache/internal/resolve"
)

// Architecture selects the cooperation structure.
type Architecture int

// Architectures.
const (
	// Distributed: N peer caches, every miss resolved by the requester
	// against the origin (the paper's experimental setup).
	Distributed Architecture = iota + 1
	// Hierarchical: N leaf caches sharing one parent cache; leaves
	// forward group-wide misses to the parent, which resolves them
	// against the origin.
	Hierarchical
)

// CumulativeAges selects an all-time cumulative expiration-age signal when
// set as Config.ExpirationWindow.
const CumulativeAges = -1

// String implements fmt.Stringer.
func (a Architecture) String() string {
	switch a {
	case Distributed:
		return "distributed"
	case Hierarchical:
		return "hierarchical"
	default:
		return fmt.Sprintf("architecture(%d)", int(a))
	}
}

// Config describes a cache group.
type Config struct {
	// Caches is the number of client-facing caches (paper: 2, 4, 8).
	Caches int
	// AggregateBytes is the total disk space of the group, split equally
	// among all caches (including the parent under Hierarchical), as in
	// the paper: "if the aggregate disk space available in the cache
	// group is X bytes and there are N caches, the disk space available
	// at each cache is X/N bytes".
	AggregateBytes int64
	// Scheme is the placement scheme shared by the group.
	Scheme core.Scheme
	// NewPolicy builds one replacement policy instance per cache.
	// Defaults to LRU, the paper's experimental policy.
	NewPolicy func() cache.Policy
	// ExpirationWindow selects an eviction-count window for the
	// expiration-age signal, or CumulativeAges for an all-time average
	// (which takes no ExpirationHorizon).
	ExpirationWindow int
	// ExpirationHorizon selects a time window for the expiration-age
	// signal. When both ExpirationWindow and ExpirationHorizon are zero,
	// cache.DefaultExpirationHorizon is used: a time horizon keeps the
	// contention signal responsive, which is what lets EA placement
	// spread load instead of hoarding every shared document on the
	// momentarily least-contended cache.
	ExpirationHorizon time.Duration
	// Architecture selects distributed or hierarchical cooperation.
	// Defaults to Distributed.
	Architecture Architecture
	// Location selects the document-location mechanism (ICP queries,
	// Summary-Cache digests, or consistent-hash home routing). Defaults
	// to resolve.LocateICP, the paper's setting. LocateHash requires the
	// Distributed architecture.
	Location resolve.Location
	// Decisions, when set, records every proxy's placement verdicts.
	Decisions *obs.DecisionLog
}

// Group is a wired cooperative cache group.
type Group struct {
	cfg Config
	// leaves are the client-facing caches, in ID order.
	leaves []*proxy.Proxy
	// parent is the hierarchy parent, or nil under Distributed.
	parent *proxy.Proxy
}

// New builds and wires a group.
func New(cfg Config) (*Group, error) {
	if cfg.Caches <= 0 {
		return nil, fmt.Errorf("group: need at least one cache, got %d", cfg.Caches)
	}
	if cfg.AggregateBytes <= 0 {
		return nil, fmt.Errorf("group: aggregate size must be positive, got %d", cfg.AggregateBytes)
	}
	if cfg.Scheme == nil {
		return nil, fmt.Errorf("group: nil scheme")
	}
	if cfg.NewPolicy == nil {
		cfg.NewPolicy = func() cache.Policy { return cache.NewLRU() }
	}
	if cfg.Architecture == 0 {
		cfg.Architecture = Distributed
	}
	if cfg.Architecture == Hierarchical && cfg.Location == resolve.LocateHash {
		// Hash routing partitions the URL space across the leaves; a
		// hierarchical parent would reintroduce a second copy holder.
		return nil, fmt.Errorf("group: hash location is incompatible with the hierarchical architecture")
	}
	window, horizon := cfg.ExpirationWindow, cfg.ExpirationHorizon
	switch {
	case window == CumulativeAges && horizon != 0:
		return nil, fmt.Errorf("group: a cumulative expiration age takes no horizon, got %s", horizon)
	case window == CumulativeAges:
		window, horizon = cache.WindowAll, 0
	case window == 0 && horizon == 0:
		horizon = cache.DefaultExpirationHorizon
	}

	total := cfg.Caches
	if cfg.Architecture == Hierarchical {
		total++
	}
	perCache := cfg.AggregateBytes / int64(total)
	if perCache <= 0 {
		return nil, fmt.Errorf("group: aggregate %d bytes leaves no space for %d caches",
			cfg.AggregateBytes, total)
	}

	g := &Group{cfg: cfg}
	newProxy := func(id string) (*proxy.Proxy, error) {
		store, err := cache.New(cache.Config{
			Capacity:          perCache,
			Policy:            cfg.NewPolicy(),
			ExpirationWindow:  window,
			ExpirationHorizon: horizon,
		})
		if err != nil {
			return nil, fmt.Errorf("group: %s: %w", id, err)
		}
		return proxy.New(proxy.Config{
			ID:        id,
			Store:     store,
			Scheme:    cfg.Scheme,
			Location:  cfg.Location,
			Decisions: cfg.Decisions,
		})
	}

	for i := 0; i < cfg.Caches; i++ {
		p, err := newProxy(fmt.Sprintf("cache-%d", i))
		if err != nil {
			return nil, err
		}
		g.leaves = append(g.leaves, p)
	}

	if cfg.Architecture == Hierarchical {
		parent, err := newProxy("parent-0")
		if err != nil {
			return nil, err
		}
		g.parent = parent
	}

	// Wire siblings (and the parent, under Hierarchical).
	for i, p := range g.leaves {
		siblings := make([]*proxy.Proxy, 0, len(g.leaves)-1)
		for j, s := range g.leaves {
			if i != j {
				siblings = append(siblings, s)
			}
		}
		if err := p.SetSiblings(siblings...); err != nil {
			return nil, err
		}
		if g.parent != nil {
			if err := p.SetParent(g.parent); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Config returns the group's configuration.
func (g *Group) Config() Config { return g.cfg }

// Leaves returns the client-facing caches in ID order.
func (g *Group) Leaves() []*proxy.Proxy {
	return append([]*proxy.Proxy(nil), g.leaves...)
}

// Parent returns the hierarchy parent, or nil.
func (g *Group) Parent() *proxy.Proxy { return g.parent }

// All returns every cache in the group (leaves, then parent if any).
func (g *Group) All() []*proxy.Proxy {
	all := g.Leaves()
	if g.parent != nil {
		all = append(all, g.parent)
	}
	return all
}

// Route returns the position in Leaves of the proxy serving the given
// client. Each client is pinned to one cache by hash, modelling the static
// browser-to-proxy assignment of the paper's setup (each simulated proxy
// replayed its own clients).
func (g *Group) Route(client string) int {
	h := fnv.New32a()
	_, _ = h.Write([]byte(client))
	// The modulus is taken unsigned: converted to a 32-bit int, a sum with
	// the top bit set is negative.
	return int(h.Sum32() % uint32(len(g.leaves)))
}

// AvgCumulativeExpirationAge returns the mean of the caches' cumulative
// expiration ages — the paper's "Average Cache Expiration Age" metric
// (Table 1). Caches that have not evicted anything yet carry no contention
// evidence and are excluded; if no cache has evicted, the result is 0.
func (g *Group) AvgCumulativeExpirationAge() time.Duration {
	var (
		sum float64
		n   int
	)
	for _, p := range g.All() {
		age := p.Store().CumulativeExpirationAge()
		if age == cache.NoContention {
			continue
		}
		sum += age.Seconds()
		n++
	}
	if n == 0 {
		return 0
	}
	return time.Duration(sum / float64(n) * float64(time.Second))
}

// ReplicationStats summarises how replicated the group's contents are — the
// inefficiency the EA scheme is designed to control.
type ReplicationStats struct {
	// UniqueDocs is the number of distinct documents resident anywhere.
	UniqueDocs int
	// TotalCopies is the total number of cached documents (>= UniqueDocs).
	TotalCopies int
	// ReplicatedDocs is the number of distinct documents with 2+ copies.
	ReplicatedDocs int
}

// MeanCopies returns copies per distinct resident document.
func (r ReplicationStats) MeanCopies() float64 {
	if r.UniqueDocs == 0 {
		return 0
	}
	return float64(r.TotalCopies) / float64(r.UniqueDocs)
}

// Replication scans every cache and summarises document replication.
func (g *Group) Replication() ReplicationStats {
	counts := make(map[string]int)
	var stats ReplicationStats
	for _, p := range g.All() {
		for _, url := range p.Store().URLs() {
			counts[url]++
			stats.TotalCopies++
		}
	}
	stats.UniqueDocs = len(counts)
	for _, c := range counts {
		if c > 1 {
			stats.ReplicatedDocs++
		}
	}
	return stats
}
