// Command tracegen generates a synthetic reference stream calibrated to
// the Boston University trace shape the paper evaluates on, in the
// canonical trace format consumed by cachesim.
//
// Usage:
//
//	tracegen -scale 0.01 -seed 1 -o trace.txt
//	tracegen -requests 100000 -docs 8000 -zipf 0.8 > trace.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"eacache/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		scale    = fs.Float64("scale", 1.0, "scale the BU-calibrated preset (1.0 = paper scale: 575,775 requests)")
		requests = fs.Int("requests", 0, "override request count")
		docs     = fs.Int("docs", 0, "override unique document count")
		users    = fs.Int("users", 0, "override client count")
		zipf     = fs.Float64("zipf", 0, "override Zipf popularity exponent")
		seed     = fs.Uint64("seed", 1, "generator seed")
		out      = fs.String("o", "", "output file (default stdout)")
		format   = fs.String("format", "canonical", `output format: "canonical" or "squid"`)
		stats    = fs.Bool("stats", false, "print trace statistics to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Every flag is checked before anything is generated or written, so a
	// bad one leaves an existing -o file as it was.
	var write func(io.Writer, []trace.Record) error
	switch *format {
	case "canonical":
		write = trace.Write
	case "squid":
		write = trace.WriteSquid
	default:
		return fmt.Errorf("unknown output format %q", *format)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"requests", float64(*requests)}, {"docs", float64(*docs)}, {"users", float64(*users)}, {"zipf", *zipf}} {
		if f.v < 0 {
			return fmt.Errorf("-%s must not be negative, got %v", f.name, f.v)
		}
	}

	cfg := trace.BULike().Scaled(*scale)
	cfg.Seed = *seed
	if *requests > 0 {
		cfg.Requests = *requests
	}
	if *docs > 0 {
		cfg.UniqueDocs = *docs
	}
	if *users > 0 {
		cfg.Users = *users
	}
	if *zipf > 0 {
		cfg.ZipfAlpha = *zipf
	}

	start := time.Now()
	records, err := trace.Generate(cfg)
	if err != nil {
		return err
	}
	if *out == "" {
		err = write(stdout, records)
	} else {
		err = writeFile(*out, records, write)
	}
	if err != nil {
		return err
	}
	if *stats {
		fmt.Fprintf(stderr, "generated in %s: %s\n", time.Since(start).Round(time.Millisecond),
			trace.ComputeStats(records))
		fmt.Fprintf(stderr, "popularity: %s\n", trace.ComputePopularity(records))
	}
	return nil
}

// writeFile writes records to path, reporting a failed Close — the last
// chance to hear of a write that did not reach the file.
func writeFile(path string, records []trace.Record, write func(io.Writer, []trace.Record) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, records); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
