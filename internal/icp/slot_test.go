package icp

// The fan-out record (slot) is reused across queries; these tests hold it
// to what reuse must not change: each neighbour counts once, a stranger not
// at all, one query's replies never reach another, and the steady-state
// round leaves no garbage.

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eacache/internal/faults"
	"eacache/internal/race"
)

// scriptedResponder is a neighbour that answers each query by running
// script with the socket, so a test can duplicate, delay or misroute its
// replies.
func scriptedResponder(t *testing.T, script func(conn *net.UDPConn, peer *net.UDPAddr, q Message)) *net.UDPAddr {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	go func() {
		buf := make([]byte, maxLen)
		for {
			n, peer, err := conn.ReadFromUDP(buf)
			if err != nil {
				return
			}
			if q, err := Parse(buf[:n]); err == nil {
				script(conn, peer, q)
			}
		}
	}()
	addr, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		t.Fatal("no udp addr")
	}
	return addr
}

// TestDuplicateMissDoesNotEndFanout: A's miss arrives twice (UDP may
// duplicate), B's once, and C — the holder — answers 20 ms later. Two
// neighbours have been heard from, not three: the query must wait for C.
func TestDuplicateMissDoesNotEndFanout(t *testing.T) {
	a := scriptedResponder(t, func(conn *net.UDPConn, peer *net.UDPAddr, q Message) {
		out := mustMarshal(t, Reply(q, OpMiss))
		_, _ = conn.WriteToUDP(out, peer)
		_, _ = conn.WriteToUDP(out, peer)
	})
	b := scriptedResponder(t, func(conn *net.UDPConn, peer *net.UDPAddr, q Message) {
		_, _ = conn.WriteToUDP(mustMarshal(t, Reply(q, OpMiss)), peer)
	})
	c := scriptedResponder(t, func(conn *net.UDPConn, peer *net.UDPAddr, q Message) {
		time.Sleep(20 * time.Millisecond)
		_, _ = conn.WriteToUDP(mustMarshal(t, Reply(q, OpHit)), peer)
	})
	client := NewClient()
	defer client.Close()
	res, err := client.Query([]*net.UDPAddr{a, b, c}, "http://x/", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || len(res.Responders) != 1 || res.Responders[0] != c {
		t.Fatalf("res = %+v, want the holder's late hit", res)
	}
	if len(res.Answered) != 3 {
		t.Fatalf("Answered = %v, want each neighbour once", res.Answered)
	}
}

// TestStrangerReplyIsNotCounted: a miss echoing the request number arrives
// from a socket that was never asked, ahead of the one neighbour's hit. It
// must not stand in for the neighbour, nor appear in the result.
func TestStrangerReplyIsNotCounted(t *testing.T) {
	stranger, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer stranger.Close()
	holder := scriptedResponder(t, func(conn *net.UDPConn, peer *net.UDPAddr, q Message) {
		_, _ = stranger.WriteToUDP(mustMarshal(t, Reply(q, OpMiss)), peer)
		time.Sleep(20 * time.Millisecond)
		_, _ = conn.WriteToUDP(mustMarshal(t, Reply(q, OpHit)), peer)
	})
	client := NewClient()
	defer client.Close()
	res, err := client.Query([]*net.UDPAddr{holder}, "http://x/", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || len(res.Answered) != 1 || res.Answered[0] != holder {
		t.Fatalf("res = %+v, want one answer, the neighbour's hit", res)
	}
}

// TestFanoutAllocatesNothing: the steady-state round against three live
// responders — client, reader and the three servers' loops, all of which
// AllocsPerRun counts — and Server.handle on its own, hit and all-miss.
func TestFanoutAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	const held, nowhere = "http://held.example.edu/doc.html", "http://nowhere.example.edu/doc.html"
	holder := startServer(t, held)
	addrs := []*net.UDPAddr{startServer(t).Addr(), holder.Addr(), startServer(t).Addr()}
	c := NewClient()
	defer c.Close()
	var res Result
	for _, url := range []string{held, nowhere} {
		round := func() {
			if err := c.QueryInto(&res, addrs, url, 2*time.Second, 3); err != nil {
				t.Fatal(err)
			}
			if res.Hit != (url == held) || res.TimedOut {
				t.Fatalf("%s: res = %+v", url, res)
			}
		}
		round() // binds the socket, sizes res and the pooled slot
		if got := testing.AllocsPerRun(100, round); got != 0 {
			t.Errorf("fan-out for %s: %.1f allocs per round, want 0", url, got)
		}
		datagram := mustMarshal(t, Query(7, url))
		if got := testing.AllocsPerRun(200, func() {
			if m, ok := holder.handle(datagram); !ok || m.ReqNum != 7 {
				t.Fatalf("handle = %+v, %v", m, ok)
			}
		}); got != 0 {
			t.Errorf("Server.handle for %s: %.1f allocs per datagram, want 0", url, got)
		}
	}
}

// TestConcurrentQueriesNoCrossTalk: 64 goroutines share one Client; each
// URL is held by exactly one of twelve responders, and every responder
// sends each reply twice — the copy back to back or up to 3 ms late, often
// after its query resolved and its slot went to another query. Whatever
// arrives when, a query may only ever report what its own neighbours said
// about its own URL. Four of the goroutines fan out to all twelve, wider
// than a fresh slot. Run once over a fault-injected socket that delays
// every inbound datagram, and once, for longer, over a plain one, where
// back-to-back copies land in a slot's channel as its query returns (drop
// the drain in release and this half fails two runs in three).
func TestConcurrentQueriesNoCrossTalk(t *testing.T) {
	const responders, goroutines, maxRounds = 12, 64, 40
	urlOf := func(g, r int) string { return fmt.Sprintf("http://doc.example.edu/%d/%d", g, r) }
	holderOf := func(g, r int) int { return (g*7 + r*5) % responders }
	holds := make(map[string]int)
	for g := 0; g < goroutines; g++ {
		for r := 0; r < maxRounds; r++ {
			holds[urlOf(g, r)] = holderOf(g, r)
		}
	}
	var late atomic.Uint32
	addrs := make([]*net.UDPAddr, responders)
	for i := range addrs {
		addrs[i] = scriptedResponder(t, func(conn *net.UDPConn, peer *net.UDPAddr, q Message) {
			op := OpMiss
			if h, ok := holds[q.URL]; ok && h == i {
				op = OpHit
			}
			out := mustMarshal(t, Reply(q, op))
			_, _ = conn.WriteToUDP(out, peer)
			if d := time.Duration(late.Add(1)%4) * time.Millisecond; d == 0 {
				_, _ = conn.WriteToUDP(out, peer)
			} else {
				time.AfterFunc(d, func() { _, _ = conn.WriteToUDP(out, peer) })
			}
		})
	}
	inj, err := faults.New(faults.Config{Seed: 1, UDPDelay: 20 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}

	for _, tt := range []struct {
		name   string
		wrap   func(net.PacketConn) net.PacketConn
		rounds int
	}{
		{"delayed socket", inj.WrapPacketConn, 6},
		{"plain socket", func(pc net.PacketConn) net.PacketConn { return pc }, maxRounds},
	} {
		t.Run(tt.name, func(t *testing.T) {
			c := NewClient()
			c.Listen = func() (net.PacketConn, error) {
				conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
				if err != nil {
					return nil, err
				}
				// A delayed reader lets replies pile up in the socket;
				// room for all that can be in flight keeps losses (which
				// only cost a timeout, below) rare.
				_ = conn.SetReadBuffer(1 << 20)
				return tt.wrap(conn), nil
			}
			defer c.Close()

			// Sequentially first, where nothing can be lost: a fan-out
			// wider than the slot's arrays is complete, hit or miss.
			for _, url := range []string{urlOf(0, 0), "http://nobody.example.edu/"} {
				res, err := c.Query(addrs, url, 5*time.Second)
				if err != nil {
					t.Fatal(err)
				}
				h, held := holds[url]
				if res.TimedOut || res.Hit != held || (held && (len(res.Responders) != 1 || res.Responders[0] != addrs[h])) || (!held && len(res.Answered) != responders) {
					t.Fatalf("12-wide %s: res = %+v", url, res)
				}
			}

			var (
				wg       sync.WaitGroup
				complete atomic.Int64
			)
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var res Result
					for r := 0; r < tt.rounds; r++ {
						complete.Add(crossTalkRound(t, c, &res, addrs, urlOf(g, r), holderOf(g, r), g%16 == 0, r))
					}
				}()
			}
			wg.Wait()
			t.Logf("%d of %d queries resolved without a timeout", complete.Load(), goroutines*tt.rounds)
			if got := complete.Load(); got < int64(goroutines*tt.rounds*3/4) {
				t.Fatalf("only %d of %d queries resolved without a timeout; the test lost its teeth", got, goroutines*tt.rounds)
			}
		})
	}
}

// crossTalkRound runs one query for url, held by addrs[h] alone, against
// all of addrs (wide) or three of them, and checks the result against what
// those neighbours said. It returns 1 when the query resolved on replies
// alone, 0 when it timed out.
func crossTalkRound(t *testing.T, c *Client, res *Result, addrs []*net.UDPAddr, url string, h int, wide bool, r int) int64 {
	neighbours := addrs
	if !wide {
		// Three neighbours; the holder is among them three rounds in four.
		first := (h + r%4) % len(addrs)
		neighbours = []*net.UDPAddr{addrs[first], addrs[(first+len(addrs)-1)%len(addrs)], addrs[(first+len(addrs)-2)%len(addrs)]}
	}
	asked := false
	for _, n := range neighbours {
		asked = asked || n == addrs[h]
	}
	if err := c.QueryInto(res, neighbours, url, 500*time.Millisecond, -1); err != nil {
		t.Error(err)
		return 0
	}
	seen := make(map[*net.UDPAddr]bool)
	for _, a := range res.Answered {
		if seen[a] {
			t.Errorf("%s: %v answered twice: %v", url, a, res.Answered)
		}
		seen[a] = true
	}
	for _, a := range res.Responders {
		if a != addrs[h] {
			t.Errorf("%s: hit from %v, which does not hold it (holder %v)", url, a, addrs[h])
		}
	}
	if res.Hit != (len(res.Responders) > 0) || (res.Hit && !asked) {
		t.Errorf("%s: res = %+v, holder asked: %v", url, res, asked)
	}
	if res.TimedOut {
		return 0
	}
	// Resolved on replies alone, so nothing was lost: the verdict is
	// exactly the holder's.
	if res.Hit != asked || (!res.Hit && len(res.Answered) != len(neighbours)) {
		t.Errorf("%s: res = %+v, want hit == %v from a full set of answers", url, res, asked)
	}
	return 1
}
