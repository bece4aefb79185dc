package main

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"

	"eacache/internal/resolve"
)

// TestParseBytesLocal: -capacity and -disk-capacity take the shared size
// syntax. A rejected size fails before any socket binds, naming its flag
// and the input; an accepted one lets start-up reach the next check
// (netnode's "DiskCapacity requires DiskDir"), which also binds nothing.
func TestParseBytesLocal(t *testing.T) {
	tests := []struct {
		in string
		ok bool
	}{
		{"10MB", true},
		{"64KB", true},
		{"1GB", true},
		{"2048", true},
		{"zero", false},
		{"-1KB", false},
	}
	for _, tt := range tests {
		for _, flagName := range []string{"-capacity", "-disk-capacity"} {
			args := []string{flagName + "=" + tt.in}
			if flagName == "-capacity" {
				args = append(args, "-disk-capacity=1MB")
			}
			err := run(args, io.Discard, io.Discard)
			want := "DiskCapacity requires DiskDir"
			if !tt.ok {
				want = fmt.Sprintf("%s: cache: bad size %q", flagName, tt.in)
			}
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("run(%v) err = %v, want %q", args, err, want)
			}
		}
	}
}

func TestPeerListFlag(t *testing.T) {
	var p peerList
	if err := p.Set("127.0.0.1:3130/127.0.0.1:8081"); err != nil {
		t.Fatal(err)
	}
	if err := p.Set("127.0.0.1:3131/127.0.0.1:8082"); err != nil {
		t.Fatal(err)
	}
	if len(p.peers) != 2 {
		t.Fatalf("peers = %d", len(p.peers))
	}
	if p.peers[0].HTTP != "127.0.0.1:8081" || p.peers[0].ICP.Port != 3130 {
		t.Fatalf("peer[0] = %+v", p.peers[0])
	}
	if !strings.Contains(p.String(), "127.0.0.1:3131") {
		t.Fatalf("String() = %q", p.String())
	}
	if err := p.Set("missing-separator"); err == nil {
		t.Fatal("bad peer accepted")
	}
	if err := p.Set("not-an-addr/x"); err == nil {
		t.Fatal("unresolvable peer accepted")
	}
}

func TestDemoEndToEnd(t *testing.T) {
	var out bytes.Buffer
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := runDemo(&out, logger, 3, 200, "ea", resolve.LocateICP, ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"demo group: 3 nodes", "replayed 200 requests", "estimated mean latency"} {
		if !strings.Contains(s, want) {
			t.Fatalf("demo output missing %q:\n%s", want, s)
		}
	}
}

func TestDemoRejectsBadScheme(t *testing.T) {
	var out bytes.Buffer
	if err := runDemo(&out, slog.New(slog.NewTextHandler(io.Discard, nil)), 2, 10, "bogus", resolve.LocateICP, ""); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

func TestDemoWithChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	var out bytes.Buffer
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := runDemo(&out, logger, 3, 60, "ea", resolve.LocateICP, "seed=1,udp-drop=0.3"); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"replayed 60 requests", "chaos injected", "group robustness"} {
		if !strings.Contains(s, want) {
			t.Fatalf("chaos demo output missing %q:\n%s", want, s)
		}
	}
}

func TestDemoRejectsBadChaosSpec(t *testing.T) {
	var out bytes.Buffer
	if err := runDemo(&out, slog.New(slog.NewTextHandler(io.Discard, nil)), 2, 10, "ea", resolve.LocateICP, "udp-drop=2"); err == nil {
		t.Fatal("bad chaos spec accepted")
	}
}

// TestDemoHashMode runs the 4-node hash-routed demo end-to-end: every
// request must resolve over the wire and the group must hold at most one
// copy of each document (runDemo returns an error otherwise).
func TestDemoHashMode(t *testing.T) {
	var out bytes.Buffer
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	if err := runDemo(&out, logger, 4, 300, "ea", resolve.LocateHash, ""); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"demo group: 4 nodes", "locate=hash", "replayed 300 requests", ", max 1\n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("hash demo output missing %q:\n%s", want, s)
		}
	}
}

// TestOverloadFlagValidation: the overload-bound flags reject zero and
// negative values up front, naming the flag, before any socket binds.
func TestOverloadFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-origin-concurrency=0"}, "-origin-concurrency must be positive"},
		{[]string{"-origin-concurrency=-3"}, "-origin-concurrency must be positive"},
		{[]string{"-max-inflight=-1"}, "-max-inflight must be positive"},
		{[]string{"-shed-queue-wait=0s"}, "-shed-queue-wait must be positive"},
		{[]string{"-shed-queue-wait=-50ms"}, "-shed-queue-wait must be positive"},
		{[]string{"-trace-sample=0"}, "-trace-sample must be at least 1"},
		{[]string{"-trace-sample=-5"}, "-trace-sample must be at least 1"},
		{[]string{"-trace-capacity=0"}, "-trace-capacity must be positive"},
		{[]string{"-digest-refresh=-1s"}, "-digest-refresh must be positive"},
		{[]string{"-digest-delta-window=-4"}, "-digest-delta-window must be positive"},
		{[]string{"-digest-delta-window=16"}, "DigestDeltaWindow requires digest location"},
	}
	for _, tc := range cases {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) err = %v, want %q", tc.args, err, tc.want)
		}
	}
}

// TestLocationFromFlags: -locate is the one spelling of the location
// mechanism; each valid value reaches the demo group, an unknown one is
// rejected, and the retired -location/-digest aliases are unknown flags.
func TestLocationFromFlags(t *testing.T) {
	for _, loc := range []string{"icp", "digest", "hash"} {
		var out bytes.Buffer
		err := run([]string{"-demo", "-nodes=2", "-requests=20", "-locate=" + loc}, &out, io.Discard)
		if err != nil || !strings.Contains(out.String(), "locate="+loc+",") {
			t.Errorf("-locate=%s: err=%v output:\n%s", loc, err, out.String())
		}
	}
	if err := run([]string{"-demo", "-locate=carp"}, io.Discard, io.Discard); err == nil {
		t.Error("unknown mechanism accepted")
	}
	for _, arg := range []string{"-location=digest", "-digest"} {
		err := run([]string{"-demo", arg}, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%s: err = %v, want an unknown-flag error", arg, err)
		}
	}
}

// TestPeerListRejectsDuplicates: the same neighbour given twice — by
// fetch address or by hash name — is an operator typo caught at flag
// parse, before any socket binds.
func TestPeerListRejectsDuplicates(t *testing.T) {
	var p peerList
	if err := p.Set("127.0.0.1:3130/127.0.0.1:8081/n0"); err != nil {
		t.Fatal(err)
	}
	err := p.Set("127.0.0.1:3131/127.0.0.1:8081/n1")
	if err == nil || !strings.Contains(err.Error(), "duplicate fetch address") {
		t.Fatalf("duplicate fetch address: %v", err)
	}
	err = p.Set("127.0.0.1:3131/127.0.0.1:8082/n0")
	if err == nil || !strings.Contains(err.Error(), "duplicate hash name") {
		t.Fatalf("duplicate hash name: %v", err)
	}
	// A distinct peer still parses after the rejections.
	if err := p.Set("127.0.0.1:3131/127.0.0.1:8082/n1"); err != nil {
		t.Fatal(err)
	}
	if len(p.peers) != 2 {
		t.Fatalf("peers = %d", len(p.peers))
	}
}

// TestMembershipFlagValidation: the elastic-membership flags reject
// nonsense values up front, naming the flag.
func TestMembershipFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-eject-after=-1s"}, "-eject-after must be positive"},
		{[]string{"-readmit-probe=0s"}, "-readmit-probe must be positive"},
		{[]string{"-readmit-probe=-1s"}, "-readmit-probe must be positive"},
		{[]string{"-join-warmup=-1s"}, "-join-warmup must be positive"},
	}
	for _, tc := range cases {
		err := run(tc.args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) err = %v, want %q", tc.args, err, tc.want)
		}
	}
}
