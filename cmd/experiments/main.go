// Command experiments regenerates every table and figure of the paper's
// evaluation (plus the ablations in DESIGN.md) over a synthetic
// BU-calibrated trace, or over a trace file you supply.
//
// Usage:
//
//	experiments                     # quick pass (1% scale trace, scaled sizes)
//	experiments -full               # paper scale: 575,775 requests, 100KB..1GB
//	experiments -run fig1,table2    # a subset
//	experiments -trace trace.txt    # your own canonical trace, paper sizes
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"eacache/internal/experiments"
	"eacache/internal/trace"
)

// generate is trace.Generate; tests count its calls through it.
var generate = trace.Generate

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		full      = fs.Bool("full", false, "run at paper scale (full trace, paper sizes)")
		scale     = fs.Float64("scale", 0.01, "trace scale when not -full")
		seed      = fs.Uint64("seed", 1, "trace generator seed")
		runList   = fs.String("run", "all", "comma-separated experiment IDs, or \"all\"")
		tracePath = fs.String("trace", "", "replay this canonical trace instead of generating one")
		list      = fs.Bool("list", false, "list experiment IDs and exit")
		seeds     = fs.Int("seeds", 0, "run the EA-vs-adhoc deltas across N workload seeds (mean +/- sd) instead of the experiment list")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Every flag is checked before any trace is read or generated.
	ids := experiments.IDs
	if *runList != "all" {
		ids = strings.Split(*runList, ",")
		for i, id := range ids {
			ids[i] = strings.TrimSpace(id)
			if !slices.Contains(experiments.IDs, ids[i]) {
				return fmt.Errorf("unknown experiment %q", ids[i])
			}
		}
	}
	switch {
	case *seeds < 0:
		return fmt.Errorf("-seeds must not be negative, got %d", *seeds)
	case *seeds > 1 && *tracePath != "":
		return fmt.Errorf("-seeds needs generated workloads, not -trace")
	case *scale <= 0:
		return fmt.Errorf("-scale must be positive, got %v", *scale)
	}

	if *list {
		for _, id := range experiments.IDs {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}

	var cfg experiments.Config
	gen := trace.BULike()
	if !*full && *tracePath == "" {
		gen = gen.Scaled(*scale)
		cfg.Sizes = experiments.ScaledSizes(*scale)
	}
	if *seeds > 1 {
		traces := make([][]trace.Record, 0, *seeds)
		for i := 0; i < *seeds; i++ {
			gen.Seed = *seed + uint64(i)
			records, err := generate(gen)
			if err != nil {
				return err
			}
			traces = append(traces, records)
		}
		table, err := experiments.MultiSeed(traces, cfg)
		if err != nil {
			return err
		}
		return table.Render(stdout)
	}

	var (
		records []trace.Record
		err     error
	)
	if *tracePath != "" {
		records, err = readTrace(*tracePath)
	} else {
		gen.Seed = *seed
		records, err = generate(gen)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "trace: %s\n\n", trace.ComputeStats(records))
	suite := experiments.NewSuite(records, cfg)

	for _, id := range ids {
		start := time.Now()
		table, err := suite.Experiment(id)
		if err != nil {
			return err
		}
		if err := table.Render(stdout); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "(%s in %s)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// readTrace reads the canonical trace at path.
func readTrace(path string) ([]trace.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.Read(f)
}
