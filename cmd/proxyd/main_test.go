package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"
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
	// The fetch address is dialled and labels the peer's metrics: one
	// that does not resolve, a newline in it among others, is refused.
	for _, bad := range []string{"127.0.0.1:3132/no-port", "127.0.0.1:3132/127.0.0.1:80\n81"} {
		if err := p.Set(bad); err == nil || !strings.Contains(err.Error(), "fetch address") {
			t.Fatalf("-peer %q: err = %v, want a fetch address error", bad, err)
		}
	}
	if len(p.peers) != 2 {
		t.Fatalf("peers = %d after the refusals", len(p.peers))
	}
}

func TestDemoEndToEnd(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"demo", "-nodes=3", "-requests=200"}, &out, io.Discard); err != nil {
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
	if err := run([]string{"demo", "-nodes=2", "-requests=10", "-scheme=bogus"}, &out, io.Discard); err == nil {
		t.Fatal("bad scheme accepted")
	}
}

func TestDemoWithChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test")
	}
	var out bytes.Buffer
	if err := run([]string{"demo", "-nodes=3", "-requests=60", "-chaos=seed=1,udp-drop=0.3"}, &out, io.Discard); err != nil {
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
	if err := run([]string{"demo", "-nodes=2", "-requests=10", "-chaos=udp-drop=2"}, &out, io.Discard); err == nil {
		t.Fatal("bad chaos spec accepted")
	}
}

// TestDemoHashMode runs the 4-node hash-routed demo end-to-end: every
// request must resolve over the wire and the group must hold at most one
// copy of each document (runDemo returns an error otherwise).
func TestDemoHashMode(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"demo", "-nodes=4", "-requests=300", "-locate=hash"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"demo group: 4 nodes", "locate=hash", "replayed 300 requests", ", max 1\n"} {
		if !strings.Contains(s, want) {
			t.Fatalf("hash demo output missing %q:\n%s", want, s)
		}
	}
}

// TestOverloadFlagValidation: the overload and tracing flags reject
// nonsense values up front, naming the flag, before any socket binds.
func TestOverloadFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-max-inflight=-1"}, "-max-inflight must be positive"},
		{[]string{"-trace-sample=0"}, "-trace-sample must be at least 1"},
		{[]string{"-trace-sample=-5"}, "-trace-sample must be at least 1"},
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
// rejected by the node and the demo, and the retired -location/-digest
// aliases are unknown flags.
func TestLocationFromFlags(t *testing.T) {
	for _, loc := range []string{"icp", "digest", "hash"} {
		var out bytes.Buffer
		err := run([]string{"demo", "-nodes=2", "-requests=20", "-locate=" + loc}, &out, io.Discard)
		if err != nil || !strings.Contains(out.String(), "locate="+loc+",") {
			t.Errorf("-locate=%s: err=%v output:\n%s", loc, err, out.String())
		}
	}
	for _, args := range [][]string{{"-locate=carp"}, {"demo", "-locate=carp"}} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%v): unknown mechanism accepted", args)
		}
	}
	for _, arg := range []string{"-location=digest", "-digest"} {
		err := run([]string{"demo", arg}, io.Discard, io.Discard)
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

// TestSubcommandsOwnTheirFlags: the demo's and the origin's flags live
// behind their subcommands, off the node's surface, and `proxyd origin`
// reaches the origin server (a bad address fails its listen).
func TestSubcommandsOwnTheirFlags(t *testing.T) {
	for _, args := range [][]string{{"-demo"}, {"-nodes=2"}, {"-requests=5"}, {"-origin-mode"}, {"origin", "-nodes=2"}, {"demo", "-capacity=1MB"}} {
		err := run(args, io.Discard, io.Discard)
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("run(%v) err = %v, want an unknown-flag error", args, err)
		}
	}
	err := run([]string{"origin", "-http=256.0.0.1:0"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "origin listen") {
		t.Errorf("origin on a bad address: err = %v, want an origin listen error", err)
	}
}
