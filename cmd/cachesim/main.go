// Command cachesim runs one trace-driven cooperative caching simulation
// and prints the paper's metrics for it.
//
// Usage:
//
//	cachesim -trace trace.txt -scheme ea -caches 4 -aggregate 10MB
//	tracegen -scale 0.01 | cachesim -scheme adhoc -caches 8 -aggregate 1MB
//	cachesim -trace bu.log -format bu -scheme ea ...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/group"
	"eacache/internal/obs"
	"eacache/internal/resolve"
	"eacache/internal/sim"
	"eacache/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("cachesim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		tracePath  = fs.String("trace", "", "trace file (default stdin)")
		format     = fs.String("format", "canonical", `trace format: "canonical", "bu" or "squid"`)
		schemeName = fs.String("scheme", "ea", `placement scheme: "adhoc", "ea" or "never"`)
		caches     = fs.Int("caches", 4, "number of caches in the group")
		aggregate  = fs.String("aggregate", "10MB", "aggregate group size (e.g. 100KB, 1MB, 1GB)")
		policy     = fs.String("policy", "lru", `replacement policy: "lru" or "lfu"`)
		arch       = fs.String("arch", "distributed", `architecture: "distributed" or "hierarchical"`)
		window     = fs.Int("window", 0, "expiration-age window in evictions (0 = the group's default horizon, -1 = cumulative)")
		horizon    = fs.Duration("horizon", 0, "expiration-age time horizon (0 = group default)")
		location   = fs.String("location", "icp", `document location: "icp", "digest" or "hash"`)
		warmup     = fs.Float64("warmup", 0, "fraction of the trace replayed uncounted to warm the caches")
		popularity = fs.Bool("popularity", false, "print the trace's popularity analysis")
		decisions  = fs.Int("decisions", 0, "print the last N placement verdicts with their expiration ages, as JSON")
		perCache   = fs.Bool("per-cache", false, "print per-cache breakdown")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Every flag is checked, and the group built, before the trace is
	// read (loadTrace checks -format first): on stdin, reading consumes it.
	aggBytes, err := cache.ParseBytes(*aggregate)
	if err != nil {
		return err
	}
	scheme, ok := core.New(*schemeName)
	if !ok {
		return fmt.Errorf("unknown scheme %q", *schemeName)
	}
	architecture := group.Distributed
	if *arch == "hierarchical" {
		architecture = group.Hierarchical
	} else if *arch != "distributed" {
		return fmt.Errorf("unknown architecture %q", *arch)
	}
	loc, err := resolve.ParseLocation(*location)
	if err != nil {
		return err
	}
	if _, ok := cache.NewPolicy(*policy); !ok {
		return fmt.Errorf("unknown policy %q", *policy)
	}
	if *warmup < 0 || *warmup >= 1 {
		return fmt.Errorf("-warmup must be in [0,1), got %v", *warmup)
	}
	var decisionLog *obs.DecisionLog
	if *decisions > 0 {
		decisionLog = obs.NewDecisionLog(*decisions)
	}

	g, err := group.New(group.Config{
		Caches:         *caches,
		AggregateBytes: aggBytes,
		Scheme:         scheme,
		NewPolicy: func() cache.Policy {
			p, _ := cache.NewPolicy(*policy)
			return p
		},
		ExpirationWindow:  *window,
		ExpirationHorizon: *horizon,
		Architecture:      architecture,
		Location:          loc,
		Decisions:         decisionLog,
	})
	if err != nil {
		return err
	}

	records, err := loadTrace(*tracePath, *format, stdin, stderr)
	if err != nil {
		return err
	}
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)
	trace.SortByTime(records)

	start := time.Now()
	rep, err := sim.Run(g, records, sim.Config{Warmup: *warmup})
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "trace: %s\n", trace.ComputeStats(records))
	if *popularity {
		fmt.Fprintf(stdout, "popularity: %s\n", trace.ComputePopularity(records))
	}
	fmt.Fprintf(stdout, "run:   %s (simulated in %s)\n", rep, time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "replication: %.3f copies/doc over %d unique resident docs (%d replicated)\n",
		rep.Replication.MeanCopies(), rep.Replication.UniqueDocs, rep.Replication.ReplicatedDocs)
	if *perCache {
		for _, p := range rep.PerProxy {
			age := "no evictions"
			if p.ExpirationAge != cache.NoContention {
				age = fmt.Sprintf("exp-age %.1fs", p.ExpirationAge.Seconds())
			}
			fmt.Fprintf(stdout,
				"  %s: reqs=%d local=%d remote=%d miss=%d evictions=%d resident=%d (%s) %s\n",
				p.ID, p.Counters.Requests, p.Counters.LocalHits, p.Counters.RemoteHits,
				p.Counters.Misses, p.Evictions, p.ResidentDocs, sim.FormatBytes(p.ResidentBytes), age)
		}
	}
	if decisionLog != nil {
		return decisionLog.WriteJSON(stdout, "", "")
	}
	return nil
}

func loadTrace(path, format string, stdin io.Reader, stderr io.Writer) ([]trace.Record, error) {
	var r io.Reader = stdin
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	switch format {
	case "canonical":
		return trace.Read(r)
	case "bu":
		records, skipped, err := trace.ReadBU(r)
		if err != nil {
			return nil, err
		}
		if skipped > 0 {
			fmt.Fprintf(stderr, "cachesim: skipped %d unparseable BU log lines\n", skipped)
		}
		return records, nil
	case "squid":
		records, skipped, err := trace.ReadSquid(r)
		if err != nil {
			return nil, err
		}
		if skipped > 0 {
			fmt.Fprintf(stderr, "cachesim: skipped %d non-GET or unparseable squid log lines\n", skipped)
		}
		return records, nil
	default:
		return nil, fmt.Errorf("unknown trace format %q", format)
	}
}
