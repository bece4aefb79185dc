// Command eacctl introspects a running cooperative cache group from any
// one member's admin address. It walks the membership table to find every
// node's admin surface, scrapes /metrics, /healthz, /admin/peers and
// /admin/resident from each, and renders a group-wide report: hit mix,
// byte hit rate, EA contention spread, placement-decision tallies,
// replication factor, breaker and membership state. The trace subcommand
// stitches one distributed trace — every node's spans for a single
// group-wide trace ID — into a causally ordered timeline.
//
// Usage:
//
//	eacctl -addr 127.0.0.1:9081 report
//	eacctl -addr 127.0.0.1:9081 -json report
//	eacctl -addr 127.0.0.1:9081 trace 7d60c84a96a4f2e1
//
// eacctl talks only to admin surfaces (obs.ServeAdmin); it never touches
// the ICP or fetch ports, so it is safe to run against a loaded group.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "eacctl:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("eacctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr    = fs.String("addr", "", "admin address of any group member (host:port); the rest are discovered")
		jsonOut = fs.Bool("json", false, "emit the report as JSON instead of text")
		timeout = fs.Duration("timeout", 5*time.Second, "per-request HTTP timeout")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: eacctl -addr <admin-addr> [-json] [report | trace <trace-id>]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *addr == "" {
		return fmt.Errorf("-addr is required (any member's admin address)")
	}
	cl := &client{hc: &http.Client{Timeout: *timeout}}

	cmd, rest := "report", fs.Args()
	if len(rest) > 0 {
		cmd, rest = rest[0], rest[1:]
	}
	switch cmd {
	case "report":
		rep, err := buildReport(cl, *addr, stderr)
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeJSON(stdout, rep)
		}
		renderReport(stdout, rep)
		return nil
	case "trace":
		if len(rest) != 1 {
			return fmt.Errorf("usage: eacctl -addr <admin-addr> trace <trace-id>")
		}
		tl, err := buildTimeline(cl, *addr, rest[0], stderr)
		if err != nil {
			return err
		}
		if *jsonOut {
			return writeJSON(stdout, tl)
		}
		renderTimeline(stdout, tl)
		return nil
	default:
		return fmt.Errorf("unknown command %q (want report or trace)", cmd)
	}
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// client is the thin admin-surface HTTP client. All decoding targets are
// local mirror structs, so eacctl works against any node that speaks the
// admin JSON — it shares no Go types with the server.
type client struct{ hc *http.Client }

func (c *client) getJSON(addr, path string, v any) error {
	body, err := c.getBody(addr, path)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

func (c *client) getBody(addr, path string) ([]byte, error) {
	resp, err := c.hc.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
}

// membershipView mirrors the GET /admin/peers body.
type membershipView struct {
	Self     string      `json:"self"`
	Epoch    int64       `json:"epoch"`
	Draining bool        `json:"draining"`
	Members  []memberRow `json:"members"`
}

type memberRow struct {
	Name    string `json:"name"`
	HTTP    string `json:"http"`
	Admin   string `json:"admin"`
	State   string `json:"state"`
	Ejected bool   `json:"ejected"`
}

// discover walks from the seed member to every admin address the group
// knows: the seed itself plus each member row that carries one. Members
// without a published admin address are reported and skipped — their
// traffic still shows in their own scrape if reached through another
// seed, but this walk cannot reach them.
func discover(cl *client, seed string, stderr io.Writer) ([]string, error) {
	var view membershipView
	if err := cl.getJSON(seed, "/admin/peers", &view); err != nil {
		return nil, fmt.Errorf("discover members via %s: %w", seed, err)
	}
	addrs := []string{seed}
	seen := map[string]bool{seed: true}
	for _, m := range view.Members {
		if m.Admin == "" {
			fmt.Fprintf(stderr, "eacctl: member %s (%s) publishes no admin address; skipping\n", m.Name, m.HTTP)
			continue
		}
		if !seen[m.Admin] {
			seen[m.Admin] = true
			addrs = append(addrs, m.Admin)
		}
	}
	return addrs, nil
}
