package icp

import (
	"net"
	"testing"
	"time"
)

// rawResponder answers every datagram by transforming it with f; it lets
// tests play a misbehaving neighbour.
func rawResponder(t *testing.T, f func(query Message) []byte) *net.UDPAddr {
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
			q, err := Parse(buf[:n])
			if err != nil {
				continue
			}
			if out := f(q); out != nil {
				_, _ = conn.WriteToUDP(out, peer)
			}
		}
	}()
	addr, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		t.Fatal("no udp addr")
	}
	return addr
}

func mustMarshal(t *testing.T, m Message) []byte {
	t.Helper()
	data, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestQueryIgnoresWrongRequestNumber(t *testing.T) {
	// A neighbour replying HIT with a stale request number must not be
	// trusted; the query times out as a miss.
	bad := rawResponder(t, func(q Message) []byte {
		r := Reply(q, OpHit)
		r.ReqNum = q.ReqNum + 100
		return mustMarshal(t, r)
	})
	c := NewClient()
	res, err := c.Query([]*net.UDPAddr{bad}, "http://x/", 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("stale-reqnum HIT accepted")
	}
}

func TestQueryIgnoresWrongURLInHit(t *testing.T) {
	bad := rawResponder(t, func(q Message) []byte {
		r := Reply(q, OpHit)
		r.URL = "http://other/"
		return mustMarshal(t, r)
	})
	c := NewClient()
	res, err := c.Query([]*net.UDPAddr{bad}, "http://x/", 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatal("HIT for a different URL accepted")
	}
	// The reply still counts as an answer (the neighbour is alive).
	if len(res.Answered) != 1 {
		t.Fatalf("replies = %d", len(res.Answered))
	}
}

func TestQueryIgnoresGarbageDatagrams(t *testing.T) {
	bad := rawResponder(t, func(q Message) []byte {
		return []byte{0xde, 0xad, 0xbe, 0xef}
	})
	c := NewClient()
	res, err := c.Query([]*net.UDPAddr{bad}, "http://x/", 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || len(res.Answered) != 0 {
		t.Fatalf("garbage counted as an answer: %+v", res)
	}
}

func TestQueryHitBeatsSlowMisses(t *testing.T) {
	// One neighbour answers HIT; another never answers. The query must
	// resolve on the HIT without waiting out the silent peer's timeout...
	hitSrv := startServer(t, "http://x/")
	silent := rawResponder(t, func(q Message) []byte { return nil })

	c := NewClient()
	start := time.Now()
	res, err := c.Query([]*net.UDPAddr{silent, hitSrv.Addr()}, "http://x/", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatalf("res = %+v", res)
	}
	if time.Since(start) > time.Second {
		t.Fatal("query waited for the silent peer despite a HIT")
	}
}

func TestQueryErrReplyCountsAsMiss(t *testing.T) {
	bad := rawResponder(t, func(q Message) []byte {
		return mustMarshal(t, Reply(q, OpErr))
	})
	c := NewClient()
	res, err := c.Query([]*net.UDPAddr{bad}, "http://x/", 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || len(res.Answered) != 1 {
		t.Fatalf("res = %+v, want one non-hit reply", res)
	}
}

func TestQuerySurvivesUnsendableNeighbour(t *testing.T) {
	// One neighbour's datagram cannot even be sent (IPv6 target from the
	// client's IPv4 socket); the fan-out must continue and find the hit.
	unsendable := &net.UDPAddr{IP: net.ParseIP("ff02::1"), Port: 9}
	hitSrv := startServer(t, "http://x/")

	c := NewClient()
	res, err := c.Query([]*net.UDPAddr{unsendable, hitSrv.Addr()}, "http://x/", 2*time.Second)
	if err != nil {
		t.Fatalf("send failure aborted the query: %v", err)
	}
	if !res.Hit {
		t.Fatalf("res = %+v, want hit despite unsendable neighbour", res)
	}
	if len(res.SendFailed) != 1 || !res.SendFailed[0].IP.Equal(unsendable.IP) {
		t.Fatalf("SendFailed = %v, want the unsendable neighbour", res.SendFailed)
	}
}

func TestQueryAllNeighboursUnsendable(t *testing.T) {
	unsendable := &net.UDPAddr{IP: net.ParseIP("ff02::1"), Port: 9}
	c := NewClient()
	res, err := c.Query([]*net.UDPAddr{unsendable}, "http://x/", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || len(res.SendFailed) != 1 || res.TimedOut {
		t.Fatalf("res = %+v, want immediate miss", res)
	}
}

func TestQueryCollectsEveryHitResponder(t *testing.T) {
	// Two neighbours both hold the document; both must be reported so the
	// caller can retry the fetch against the second if the first dies.
	hitA := startServer(t, "http://x/")
	hitB := startServer(t, "http://x/")

	c := NewClient()
	res, err := c.Query([]*net.UDPAddr{hitA.Addr(), hitB.Addr()}, "http://x/", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatalf("res = %+v, want hit", res)
	}
	if len(res.Responders) != 2 {
		t.Fatalf("responders = %v, want both neighbours", res.Responders)
	}
}

func TestQueryTimedOutFlag(t *testing.T) {
	silent := rawResponder(t, func(q Message) []byte { return nil })
	missSrv := startServer(t, "http://other/")

	c := NewClient()
	res, err := c.Query([]*net.UDPAddr{silent, missSrv.Addr()}, "http://x/", 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || !res.TimedOut {
		t.Fatalf("res = %+v, want timed-out miss", res)
	}
	if len(res.Answered) != 1 || res.Answered[0].Port != missSrv.Addr().Port {
		t.Fatalf("Answered = %v, want only the miss responder", res.Answered)
	}

	// All neighbours answering resolves without the timeout flag.
	start := time.Now()
	res, err = c.Query([]*net.UDPAddr{missSrv.Addr()}, "http://x/", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut || time.Since(start) > time.Second {
		t.Fatalf("res = %+v, want fast non-timeout miss", res)
	}
}
