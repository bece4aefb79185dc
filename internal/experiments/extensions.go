package experiments

import (
	"fmt"
	"slices"
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
	locations := []resolve.Location{resolve.LocateICP, resolve.LocateDigest}
	var cells []cell
	for _, size := range sizes {
		for _, loc := range locations {
			c := s.cell(s.cfg.Caches, size)
			c.scheme, c.location = "ea", loc
			cells = append(cells, c)
		}
	}
	reps, err := s.runAll(cells...)
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		for j, loc := range locations {
			rep := reps[i*len(locations)+j]
			var queries, rebuilds, falseHits int64
			for _, pr := range rep.PerProxy {
				queries += pr.ICP.QueriesSent
				rebuilds += pr.ICP.DigestRebuilds
				falseHits += pr.ICP.DigestFalseHits
			}
			t.AddRow(s.cfg.label(size), loc.String(),
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
	var cells []cell
	for _, c := range s.cells(s.cfg.Caches, sizes) {
		c.scheme = "adhoc"
		cells = append(cells, c)
		c.scheme = "ea"
		cells = append(cells, c)
		// Consistent-hash partitioning: each request goes to its client's
		// edge cache, which routes it over the group's chash ring to the
		// URL's home cache, the only one that keeps a copy. The ring
		// members are the "cache-N" IDs a live group hashes by, so the
		// simulator and the live node route URLs to the same homes.
		c.location = resolve.LocateHash
		cells = append(cells, c)
	}
	reps, err := s.runAll(cells...)
	if err != nil {
		return nil, err
	}
	for i, size := range sizes {
		adhoc, ea, part := reps[3*i], reps[3*i+1], reps[3*i+2]
		t.AddRow(s.cfg.label(size),
			pct(adhoc.Group.HitRate()), pct(ea.Group.HitRate()), pct(part.Group.HitRate()),
			pct(adhoc.Group.LocalHitRate()), pct(ea.Group.LocalHitRate()), pct(part.Group.LocalHitRate()))
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
	// One job per group size replays both schemes over that size's
	// broadcast stream.
	adhocs := make([]*sim.Report, len(s.cfg.GroupSizes))
	eas := make([]*sim.Report, len(s.cfg.GroupSizes))
	err := s.pool.each(len(s.cfg.GroupSizes), func(i int) error {
		// Size the group so each cache holds ~40 of the 100 documents:
		// too small for everything, big enough that replication policy
		// decides what survives.
		caches := s.cfg.GroupSizes[i]
		aggregate := int64(caches) * 40 * trace.DefaultDocSize
		var err error
		adhocs[i], eas[i], err = runBroadcastPair(caches, aggregate, s.cfg.Latency)
		return err
	})
	if err != nil {
		return nil, err
	}
	for i, caches := range s.cfg.GroupSizes {
		adhocRep, eaRep := adhocs[i], eas[i]
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
func broadcastWorkload(clients []trace.Client) []trace.Record {
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
// per leaf, so the broadcast stream really reaches every cache.
func clientsCoveringAllCaches(g *group.Group) []trace.Client {
	byLeaf := make([]trace.Client, len(g.Leaves()))
	for i, found := 0, 0; found < len(byLeaf) && i < 100000; i++ {
		name := fmt.Sprintf("bcast-client-%d", i)
		if leaf := g.Route(name); byLeaf[leaf] == (trace.Client{}) {
			byLeaf[leaf], found = trace.MakeClient(name), found+1
		}
	}
	return slices.DeleteFunc(byLeaf, func(c trace.Client) bool { return c == (trace.Client{}) })
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

	capacities := []int{50, 200, 800, 3200}
	analytic, simulated := make([]float64, len(capacities)), make([]float64, len(capacities))
	err = s.pool.each(len(capacities), func(c int) error {
		var err error
		if analytic[c], err = model.CheLRU(probs, capacities[c]); err != nil {
			return err
		}
		st, err := cache.New(cache.Config{Capacity: int64(capacities[c])})
		if err != nil {
			return err
		}
		rng := dist.NewRNG(99)
		now := time.Unix(784900000, 0)
		hits := 0
		for i := 0; i < requests; i++ {
			url := fmt.Sprintf("doc-%d", zipf.Rank(rng))
			if _, ok := st.Get(url, now); ok {
				hits++
			} else if _, err := st.Put(cache.Document{URL: url, Size: 1}, now); err != nil {
				return err
			}
			now = now.Add(time.Second)
		}
		simulated[c] = float64(hits) / requests
		return nil
	})
	if err != nil {
		return nil, err
	}
	for c, capacity := range capacities {
		t.AddRow(fmt.Sprintf("%d", capacity),
			pct(analytic[c]), pct(simulated[c]),
			fmt.Sprintf("%+.2f", 100*(simulated[c]-analytic[c])))
	}
	return t, nil
}
