package experiments

import (
	"fmt"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/dist"
	"eacache/internal/group"
	"eacache/internal/metrics"
	"eacache/internal/model"
	"eacache/internal/resolve"
	"eacache/internal/sim"
	"eacache/internal/trace"
)

// Location compares the two document-location mechanisms the paper's
// related work discusses: per-miss ICP queries (exact, O(neighbours)
// messages per miss) versus Summary-Cache Bloom digests (no per-miss
// messages, but colliding summaries cost wasted fetches). The digests
// are maintained incrementally from cache events — the rebuild column
// counts only the counter-saturation escape hatch, and a healthy run
// shows 0. Both run under the EA placement scheme.
func (s *Suite) Location() (*Table, error) {
	t := &Table{
		ID:    "location",
		Title: "ICP queries vs Summary-Cache digests under EA placement (related work)",
		Columns: []string{"aggregate", "mechanism", "hit-rate", "remote",
			"icp msgs", "rebuild escapes", "false hits"},
		Notes: []string{
			"Summary Cache's bargain: near-ICP hit rates at a fraction of the messages",
			"digests update incrementally per mutation; rebuild escapes stay 0 in steady state",
		},
	}
	sizes := middleSizes(s.cfg.Sizes, 2)
	for _, size := range sizes {
		for _, loc := range []resolve.Location{resolve.LocateICP, resolve.LocateDigest} {
			c := s.cell(s.cfg.Caches, size)
			c.scheme, c.location = "ea", loc
			rep, err := s.run(c)
			if err != nil {
				return nil, err
			}
			var queries, rebuilds, falseHits int64
			for _, pr := range rep.PerProxy {
				queries += pr.ICP.QueriesSent
				rebuilds += pr.ICP.DigestRebuilds
				falseHits += pr.ICP.DigestFalseHits
			}
			t.AddRow(sim.FormatBytes(size), loc.String(),
				pct(rep.Group.HitRate()), pct(rep.Group.RemoteHitRate()),
				fmt.Sprintf("%d", queries),
				fmt.Sprintf("%d", rebuilds),
				fmt.Sprintf("%d", falseHits))
		}
	}
	return t, nil
}

// Partitioned adds the no-replication extreme from the related work:
// consistent-hash partitioning (Karger et al.), where every URL has exactly
// one home cache. Ad-hoc replicates everywhere, partitioning never
// replicates, and the EA scheme sits in between — the table shows where
// each policy's hits come from.
func (s *Suite) Partitioned() (*Table, error) {
	t := &Table{
		ID:    "partitioned",
		Title: "Placement extremes: ad-hoc vs EA vs consistent-hash partitioning",
		Columns: []string{"aggregate", "adhoc hit", "ea hit", "chash hit",
			"adhoc local", "ea local", "chash local"},
		Notes: []string{
			"partitioning maximises unique documents but forfeits local hits entirely at scale",
		},
	}
	sizes := middleSizes(s.cfg.Sizes, 3)
	for _, size := range sizes {
		c := s.cell(s.cfg.Caches, size)
		adhoc, ea, err := s.runPair(c)
		if err != nil {
			return nil, err
		}
		// Consistent-hash partitioning: each request goes to its client's
		// edge cache, which routes it over the group's chash ring to the
		// URL's home cache, the only one that keeps a copy. The ring
		// members are the "cache-N" IDs a live group hashes by, so the
		// simulator and the live node route URLs to the same homes.
		c.scheme, c.location = "ea", resolve.LocateHash
		part, err := s.run(c)
		if err != nil {
			return nil, err
		}
		t.AddRow(sim.FormatBytes(size),
			pct(adhoc.Group.HitRate()), pct(ea.Group.HitRate()), pct(part.Group.HitRate()),
			pct(adhoc.Group.LocalHitRate()), pct(ea.Group.LocalHitRate()), pct(part.Group.LocalHitRate()))
	}
	return t, nil
}

// Coherence measures the freshness tax: the same workload replayed with an
// origin that stamps era-shaped lifetimes on documents (10% expire in 5min,
// 30% in 1h, the rest never) versus the paper's coherence-free setting.
// Stale copies are neither served locally, advertised over ICP, nor served
// remotely; the placement schemes run unchanged on top.
func (s *Suite) Coherence() (*Table, error) {
	t := &Table{
		ID:    "coherence",
		Title: "Freshness (TTL) tax on both placement schemes (coherence substrate)",
		Columns: []string{"aggregate", "ttl mix",
			"adhoc hit", "ea hit", "ea-adhoc (pp)"},
		Notes: []string{
			"the EA advantage survives coherence: expiry hurts both schemes alike",
		},
	}
	sizes := middleSizes(s.cfg.Sizes, 2)
	for _, size := range sizes {
		for _, mortal := range []bool{false, true} {
			label := "immortal"
			if mortal {
				label = "era mix"
			}
			c := s.cell(s.cfg.Caches, size)
			c.ttl = mortal
			adhoc, ea, err := s.runPair(c)
			if err != nil {
				return nil, err
			}
			t.AddRow(sim.FormatBytes(size), label,
				pct(adhoc.Group.HitRate()), pct(ea.Group.HitRate()),
				fmt.Sprintf("%+.2f", 100*(ea.Group.HitRate()-adhoc.Group.HitRate())))
		}
	}
	return t, nil
}

// WorstCase reproduces the §2 thought experiment: "The worst case of this
// limitation, though hypothetical, would be all the documents being
// replicated on all the caches. In this case, the effective disk space in
// the cache group is (1/N) times the aggregate disk space available." A
// broadcast workload — every client cycling through the same document set —
// drives the ad-hoc scheme to N copies of everything while the EA scheme
// keeps replication near one copy, multiplying the group's effective space
// by up to N.
func (s *Suite) WorstCase() (*Table, error) {
	t := &Table{
		ID:    "worstcase",
		Title: "§2 worst case: broadcast workload, replication and effective space",
		Columns: []string{"caches", "adhoc copies/doc", "ea copies/doc",
			"adhoc unique", "ea unique", "adhoc hit", "ea hit"},
		Notes: []string{
			"paper §2: under full replication the effective disk space is aggregate/N",
		},
	}
	for _, caches := range s.cfg.GroupSizes {
		// Size the group so each cache holds ~40 of the 100 documents:
		// too small for everything, big enough that replication policy
		// decides what survives.
		aggregate := int64(caches) * 40 * trace.DefaultDocSize
		adhocRep, eaRep, err := runBroadcastPair(caches, aggregate, s.cfg.Latency)
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", caches),
			fmt.Sprintf("%.2f", adhocRep.Replication.MeanCopies()),
			fmt.Sprintf("%.2f", eaRep.Replication.MeanCopies()),
			fmt.Sprintf("%d", adhocRep.Replication.UniqueDocs),
			fmt.Sprintf("%d", eaRep.Replication.UniqueDocs),
			pct(adhocRep.Group.HitRate()), pct(eaRep.Group.HitRate()))
	}
	return t, nil
}

// broadcastWorkload builds the §2 adversarial stream: one client behind
// every cache, all cycling through the same 100 documents in near-lockstep,
// so every cache is asked for every document within one residency window.
func broadcastWorkload(clients []string) []trace.Record {
	const (
		docs   = 100
		rounds = 60
	)
	start := time.Date(1994, time.November, 15, 9, 0, 0, 0, time.UTC)
	records := make([]trace.Record, 0, len(clients)*docs*rounds)
	tick := 0
	for r := 0; r < rounds; r++ {
		for d := 0; d < docs; d++ {
			for _, client := range clients {
				records = append(records, trace.Record{
					UnixNano: start.Add(time.Duration(tick) * time.Second).UnixNano(),
					Client:   client,
					URL:      fmt.Sprintf("http://bcast.example.edu/doc%03d.html", d),
					Size:     trace.DefaultDocSize,
				})
				tick++
			}
		}
	}
	return records
}

// clientsCoveringAllCaches probes the group's hash routing for one client
// name per leaf, so the broadcast stream really reaches every cache.
func clientsCoveringAllCaches(g *group.Group) []string {
	byLeaf := make(map[string]string, len(g.Leaves()))
	for i := 0; len(byLeaf) < len(g.Leaves()) && i < 100000; i++ {
		name := fmt.Sprintf("bcast-client-%d", i)
		id := g.Route(name).ID()
		if _, ok := byLeaf[id]; !ok {
			byLeaf[id] = name
		}
	}
	clients := make([]string, 0, len(byLeaf))
	for _, leaf := range g.Leaves() {
		if name, ok := byLeaf[leaf.ID()]; ok {
			clients = append(clients, name)
		}
	}
	return clients
}

func runBroadcastPair(caches int, aggregate int64, latency metrics.LatencyModel) (adhocRep, eaRep *sim.Report, err error) {
	newGroup := func(scheme core.Scheme) (*group.Group, error) {
		return group.New(group.Config{
			Caches:         caches,
			AggregateBytes: aggregate,
			Scheme:         scheme,
		})
	}
	probe, err := newGroup(core.AdHoc{})
	if err != nil {
		return nil, nil, err
	}
	records := broadcastWorkload(clientsCoveringAllCaches(probe))

	run := func(scheme core.Scheme) (*sim.Report, error) {
		g, err := newGroup(scheme)
		if err != nil {
			return nil, err
		}
		return sim.Run(g, records, sim.Config{Latency: latency})
	}
	if adhocRep, err = run(core.AdHoc{}); err != nil {
		return nil, nil, err
	}
	if eaRep, err = run(core.EA{}); err != nil {
		return nil, nil, err
	}
	return adhocRep, eaRep, nil
}

// ModelCheck cross-validates the simulator against Che's analytical LRU
// approximation on a pure independent-reference workload: the two hit-rate
// estimates must track each other across cache sizes. The paper's
// technical-report analysis plays the same validating role for its own
// simulator.
func (s *Suite) ModelCheck() (*Table, error) {
	t := &Table{
		ID:      "model-check",
		Title:   "Simulator vs Che's analytical LRU model (IRM Zipf workload)",
		Columns: []string{"capacity (docs)", "analytic hit", "simulated hit", "diff (pp)"},
		Notes: []string{
			"validates the cache substrate; the trace-driven experiments add locality the IRM model excludes",
		},
	}
	const (
		docs     = 4000
		requests = 120000
		alpha    = 0.8
	)
	probs, err := model.ZipfPopularities(docs, alpha)
	if err != nil {
		return nil, err
	}
	zipf, err := dist.NewZipf(docs, alpha)
	if err != nil {
		return nil, err
	}

	for _, capacity := range []int{50, 200, 800, 3200} {
		analytic, err := model.CheLRU(probs, capacity)
		if err != nil {
			return nil, err
		}
		st, err := cache.New(cache.Config{Capacity: int64(capacity)})
		if err != nil {
			return nil, err
		}
		rng := dist.NewRNG(99)
		now := time.Unix(784900000, 0)
		hits := 0
		for i := 0; i < requests; i++ {
			url := fmt.Sprintf("doc-%d", zipf.Rank(rng))
			if _, ok := st.Get(url, now); ok {
				hits++
			} else if _, err := st.Put(cache.Document{URL: url, Size: 1}, now); err != nil {
				return nil, err
			}
			now = now.Add(time.Second)
		}
		simulated := float64(hits) / requests
		t.AddRow(fmt.Sprintf("%d", capacity),
			pct(analytic), pct(simulated),
			fmt.Sprintf("%+.2f", 100*(simulated-analytic)))
	}
	return t, nil
}
