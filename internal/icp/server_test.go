package icp

import (
	"net"
	"sync"
	"testing"
	"time"
)

// startServer runs an ICP responder that reports urls in the cached set as
// hits.
func startServer(t *testing.T, cached ...string) *Server {
	t.Helper()
	set := make(map[string]bool, len(cached))
	for _, u := range cached {
		set[u] = true
	}
	var mu sync.Mutex
	s, err := NewServer("127.0.0.1:0", HandlerFunc(func(url string) Opcode {
		mu.Lock()
		defer mu.Unlock()
		if set[url] {
			return OpHit
		}
		return OpMiss
	}), nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestQueryHitAndMiss(t *testing.T) {
	srv := startServer(t, "http://cached.example.edu/")
	c := NewClient()

	res, err := c.Query([]*net.UDPAddr{srv.Addr()}, "http://cached.example.edu/", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || len(res.Responders) != 1 {
		t.Fatalf("want hit, got %+v", res)
	}
	if res.Responders[0].Port != srv.Addr().Port {
		t.Fatalf("responder = %v, want %v", res.Responders[0], srv.Addr())
	}

	res, err = c.Query([]*net.UDPAddr{srv.Addr()}, "http://other.example.edu/", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit {
		t.Fatalf("want miss, got %+v", res)
	}
	if len(res.Answered) != 1 {
		t.Fatalf("replies = %d, want 1", len(res.Answered))
	}
}

func TestQueryFanOutFirstHitWins(t *testing.T) {
	miss1 := startServer(t)
	miss2 := startServer(t)
	hit := startServer(t, "http://doc.example.edu/")
	c := NewClient()

	res, err := c.Query(
		[]*net.UDPAddr{miss1.Addr(), hit.Addr(), miss2.Addr()},
		"http://doc.example.edu/", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatalf("want hit, got %+v", res)
	}
	if res.Responders[0].Port != hit.Addr().Port {
		t.Fatalf("responder = %v, want the hit server %v", res.Responders[0], hit.Addr())
	}
}

func TestQueryTimeoutOnSilentPeer(t *testing.T) {
	// A bound but unserviced socket: queries vanish, client must time out
	// and report a miss.
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	silent, ok := conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		t.Fatal("no udp addr")
	}

	c := NewClient()
	start := time.Now()
	res, err := c.Query([]*net.UDPAddr{silent}, "http://x/", 200*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || len(res.Answered) != 0 {
		t.Fatalf("want silent miss, got %+v", res)
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("timeout not honoured")
	}
}

func TestQueryNoNeighbours(t *testing.T) {
	c := NewClient()
	res, err := c.Query(nil, "http://x/", time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || len(res.Answered) != 0 {
		t.Fatalf("empty fan-out should miss instantly, got %+v", res)
	}
}

func TestServerAnswersSEcho(t *testing.T) {
	srv := startServer(t)
	conn, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	echo := Message{Op: OpSEcho, Version: Version2, ReqNum: 55, URL: "http://e/"}
	data, err := echo.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(data); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1<<16)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpSEcho || m.ReqNum != 55 || m.URL != "http://e/" {
		t.Fatalf("echo reply = %+v", m)
	}
}

func TestServerRepliesErrToGarbage(t *testing.T) {
	srv := startServer(t)
	conn, err := net.DialUDP("udp", nil, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// A header-sized datagram with a bad version: the server should
	// answer ICP_OP_ERR echoing the request number.
	garbage := make([]byte, headerLen)
	garbage[0] = byte(OpQuery)
	garbage[1] = 9 // bad version
	garbage[2] = 0
	garbage[3] = headerLen
	garbage[7] = 77 // reqnum low byte
	if _, err := conn.Write(garbage); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 1<<16)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Parse(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if m.Op != OpErr || m.ReqNum != 77 {
		t.Fatalf("reply = %+v, want ICP_OP_ERR echoing request number 77", m)
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer("127.0.0.1:0", nil, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if _, err := NewServer("not-an-addr", HandlerFunc(func(string) Opcode { return OpMiss }), nil); err == nil {
		t.Fatal("bad address accepted")
	}
}

func TestConcurrentQueries(t *testing.T) {
	srv := startServer(t, "http://hot.example.edu/")
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := NewClient()
			res, err := c.Query([]*net.UDPAddr{srv.Addr()}, "http://hot.example.edu/", time.Second)
			if err != nil {
				errs <- err
				return
			}
			if !res.Hit {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatalf("concurrent query failed: %v", err)
	}
}
