package netnode

// Node.exchange is the one outbound hproto round trip; these tests drive
// it through each of the three verbs built on it.

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/faults"
	"eacache/internal/hproto"
	"eacache/internal/race"
)

var exchangeVerbs = []struct {
	name string
	do   func(n *Node, addr string) error
}{
	{"GET", func(n *Node, addr string) error {
		_, _, _, err := n.fetchFrom(nil, addr, "http://x.example.edu/doc", 64, cache.NoContention, false, 0)
		return err
	}},
	{"PUT", func(n *Node, addr string) error {
		_, _, err := n.pushCopy(addr, cache.Document{URL: "http://x.example.edu/doc", Size: 64})
		return err
	}},
	{"digest", func(n *Node, addr string) error {
		_, _, _, err := n.fetchDigestSince(addr, 0, nil)
		return err
	}},
}

// stubResponder accepts conns one at a time and answers each with canned
// (a dial-and-close reads EOF and gets nothing), allocating nothing per
// conn beyond its Accept. handled ticks once per conn the stub has served
// and closed, so a caller that waits on it counts exactly one Accept per
// call, however the scheduler runs it.
func stubResponder(t *testing.T, canned []byte) (addr string, handled <-chan struct{}) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done, tick := make(chan struct{}), make(chan struct{}, 1)
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// One read takes the whole request head (it is far smaller
			// than buf and written at once).
			if n, _ := conn.Read(buf); n > 0 {
				_, _ = conn.Write(canned)
			}
			_ = conn.Close()
			tick <- struct{}{}
		}
	}()
	t.Cleanup(func() { _ = ln.Close(); <-done })
	return ln.Addr().String(), tick
}

// silentListener accepts connections and never answers them.
func silentListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var (
		mu    sync.Mutex
		conns []net.Conn
		done  = make(chan struct{})
	)
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		_ = ln.Close()
		<-done
		mu.Lock()
		defer mu.Unlock()
		for _, c := range conns {
			_ = c.Close()
		}
	})
	return ln.Addr().String()
}

func TestExchangeVerbs(t *testing.T) {
	const fetchTimeout = 150 * time.Millisecond
	start := func(t *testing.T, inj *faults.Injector) *Node {
		t.Helper()
		n, err := New(Config{
			ID:           "x",
			ICPAddr:      "127.0.0.1:0",
			HTTPAddr:     "127.0.0.1:0",
			Store:        newStore(t, 1<<20),
			Scheme:       core.EA{},
			FetchTimeout: fetchTimeout,
			Faults:       inj,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = n.Close() })
		return n
	}

	// A responder that accepts and never answers: every verb gives up at
	// the FetchTimeout deadline, not before and not long after, and leaves
	// no goroutine behind.
	t.Run("silent responder", func(t *testing.T) {
		n := start(t, nil)
		addr := silentListener(t)
		for _, v := range exchangeVerbs {
			t.Run(v.name, func(t *testing.T) {
				before := runtime.NumGoroutine()
				began := time.Now()
				err := v.do(n, addr)
				took := time.Since(began)
				if !errors.Is(err, os.ErrDeadlineExceeded) {
					t.Fatalf("err = %v, want a deadline error", err)
				}
				if took < fetchTimeout/2 || took > fetchTimeout+2*time.Second {
					t.Fatalf("gave up after %v, want about FetchTimeout (%v)", took, fetchTimeout)
				}
				for wait := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before; {
					if time.Now().After(wait) {
						t.Fatalf("goroutines %d -> %d after the exchange returned", before, runtime.NumGoroutine())
					}
					time.Sleep(5 * time.Millisecond)
				}
			})
		}
	})

	// An injector that refuses every dial: each verb fails at dial with
	// the injected error, counted once — a verb dialling around the
	// injector would reach the healthy responder and succeed.
	t.Run("injected dial error", func(t *testing.T) {
		inj, err := faults.New(faults.Config{Seed: 1, TCPDialErrRate: 1})
		if err != nil {
			t.Fatal(err)
		}
		n := start(t, inj)
		addr := start(t, nil).HTTPAddr()
		for _, v := range exchangeVerbs {
			t.Run(v.name, func(t *testing.T) {
				before := inj.Stats().DialErrors
				if err := v.do(n, addr); !errors.Is(err, syscall.ECONNREFUSED) {
					t.Fatalf("err = %v, want the injected ECONNREFUSED", err)
				}
				if got := inj.Stats().DialErrors - before; got != 1 {
					t.Fatalf("injector counted %d dial errors for one exchange, want 1", got)
				}
			})
		}
	})
}

// TestExchangeAddsNothingToNet: a GET answered 200 with a 4 KB body costs
// what dialling and closing the conn costs and not one object more — the
// request head, the response head, the body limiter and the reader all
// come from reused records. Both sides of the comparison run against the
// same stub responder, which itself allocates nothing per conn beyond its
// Accept, so the difference is the exchange's own.
func TestExchangeAddsNothingToNet(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	var canned bytes.Buffer
	if err := hproto.WriteResponse(&canned, hproto.Response{
		Status: hproto.StatusOK, ResponderAge: 3 * time.Second, ContentLength: 4096, Source: hproto.SourceCache,
	}, bytes.NewReader(make([]byte, 4096))); err != nil {
		t.Fatal(err)
	}
	addr, handled := stubResponder(t, canned.Bytes())
	n := startNode(t, "x", 1<<20, core.EA{}, "")
	req := hproto.Request{URL: "http://x.example.edu/doc", RequesterAge: 90 * time.Second, SizeHint: 4096}
	exchange := func() {
		resp, err := n.exchange(addr, req, 0, io.Discard)
		if err != nil || resp.Status != hproto.StatusOK || resp.ContentLength != 4096 {
			t.Fatalf("exchange = %+v, %v", resp, err)
		}
		<-handled
	}
	dialClose := func() {
		conn, err := n.dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(n.cfg.FetchTimeout))
		_ = conn.Close()
		<-handled
	}
	exchange() // fills the pools
	got, base := testing.AllocsPerRun(100, exchange), testing.AllocsPerRun(100, dialClose)
	if got > base {
		t.Fatalf("exchange: %.0f allocs per call, dial+close alone: %.0f", got, base)
	}
}
