package parity

// Sim↔live parity for the advertised digest: the in-process proxy and
// the live node maintain their summaries incrementally from the same
// cache events, so after replaying one deterministic trace through
// both, the advertised artefact itself — the versioned full-sync
// envelope (generation + filter bytes) — must be byte-for-byte
// identical. A divergence means the two stacks disagree about either
// the mutation history (a membership bug) or the encoding (a wire bug).

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/digest"
	"eacache/internal/hproto"
	"eacache/internal/netnode"
	"eacache/internal/proxy"
)

// fetchLiveDigest GETs addr's versioned digest envelope as a brand-new
// peer would (since=0 → full transfer).
func fetchLiveDigest(t *testing.T, addr string) []byte {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	if err := hproto.WriteRequest(conn, hproto.Request{URL: netnode.DigestURL + "?since=0"}); err != nil {
		t.Fatalf("write digest request: %v", err)
	}
	br := bufio.NewReader(conn)
	resp, err := hproto.ReadResponse(br)
	if err != nil {
		t.Fatalf("read digest response: %v", err)
	}
	if resp.Status != hproto.StatusOK {
		t.Fatalf("digest status = %d", resp.Status)
	}
	body := make([]byte, resp.ContentLength)
	if _, err := io.ReadFull(br, body); err != nil {
		t.Fatalf("read digest body: %v", err)
	}
	return body
}

func TestSimLiveParityDigestAdvertisement(t *testing.T) {
	// Small enough that the trace forces evictions, so the advertised
	// summary's history includes removals, not just inserts.
	const capacity = int64(24 << 10)
	dcfg := digest.Config{Expected: 64, FPRate: 0.01}
	records := workload(t)

	// Sim side: one digest-mode proxy replays the whole trace.
	simStore, err := cache.New(cache.Config{
		Capacity:          capacity,
		ExpirationHorizon: cache.DefaultExpirationHorizon,
	})
	if err != nil {
		t.Fatalf("sim cache: %v", err)
	}
	p, err := proxy.New(proxy.Config{
		ID:       "cache-0",
		Store:    simStore,
		Scheme:   core.EA{},
		Origin:   proxy.SizeHintOrigin{},
		Location: proxy.LocateDigest,
		Digest:   dcfg,
	})
	if err != nil {
		t.Fatalf("proxy.New: %v", err)
	}
	for i, r := range records {
		if _, err := p.Request(r.URL, r.Size, r.Time); err != nil {
			t.Fatalf("sim request %d (%s): %v", i, r.URL, err)
		}
	}

	// Live side: one digest-mode node replays the same trace on the
	// trace-driven clock.
	clk := &traceClock{}
	clk.set(records[0].Time)
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		t.Fatalf("origin: %v", err)
	}
	defer origin.Close()
	liveStore, err := cache.NewSharded(cache.ShardedConfig{
		Shards:            1,
		Capacity:          capacity,
		ExpirationHorizon: cache.DefaultExpirationHorizon,
	})
	if err != nil {
		t.Fatalf("live cache: %v", err)
	}
	node, err := netnode.New(netnode.Config{
		ID:         "cache-0",
		ICPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Store:      liveStore,
		Scheme:     core.EA{},
		OriginAddr: origin.Addr(),
		Location:   proxy.LocateDigest,
		Digest:     dcfg,
		Now:        clk.now,
	})
	if err != nil {
		t.Fatalf("netnode.New: %v", err)
	}
	defer node.Close()
	for i, r := range records {
		clk.set(r.Time)
		if _, err := node.Request(r.URL, r.Size); err != nil {
			t.Fatalf("live request %d (%s): %v", i, r.URL, err)
		}
	}

	// Both stacks advertise the identical envelope.
	simAd, ok, err := p.DigestAdvertisement()
	if err != nil || !ok {
		t.Fatalf("sim advertisement: ok=%v err=%v", ok, err)
	}
	liveAd := fetchLiveDigest(t, node.HTTPAddr())
	if !bytes.Equal(simAd, liveAd) {
		t.Errorf("advertised digest diverged: sim %d bytes, live %d bytes\n  sim  %x…\n  live %x…",
			len(simAd), len(liveAd), simAd[:min(32, len(simAd))], liveAd[:min(32, len(liveAd))])
	}

	// Neither stack may have taken the full-scan escape hatch, and both
	// must have processed enough mutations to make the comparison mean
	// something (one generation per mutation, seeded at 1).
	if got := p.ICP().DigestRebuilds; got != 0 {
		t.Errorf("sim rebuild escapes = %d, want 0", got)
	}
	if got := node.DigestStats().RebuildEscapes; got != 0 {
		t.Errorf("live rebuild escapes = %d, want 0", got)
	}
	rep := node.DigestReport()
	if rep.OwnGeneration < uint64(len(records)/4) {
		t.Errorf("live generation = %d over %d requests; trace exercised too few mutations",
			rep.OwnGeneration, len(records))
	}
	if simStore.Evictions() == 0 {
		t.Error("workload produced no evictions; removal path untested")
	}
}
