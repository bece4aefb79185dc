package netnode

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"syscall"
	"testing"
	"time"

	"eacache/internal/core"
	"eacache/internal/race"
)

// fullListener listens on loopback with an accept backlog of 0 and never
// accepts: once one connection fills its queue, Linux drops the SYNs of
// the next, whose connect then hangs.
func fullListener(t *testing.T) string {
	t.Helper()
	fd, err := syscall.Socket(syscall.AF_INET, syscall.SOCK_STREAM, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = syscall.Close(fd) })
	if err := syscall.Bind(fd, &syscall.SockaddrInet4{Addr: [4]byte{127, 0, 0, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Listen(fd, 0); err != nil {
		t.Fatal(err)
	}
	sa, err := syscall.Getsockname(fd)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("127.0.0.1:%d", sa.(*syscall.SockaddrInet4).Port)
}

// TestDialTimeoutBoundsConnect: a connect that never completes gives up at
// DialTimeout as a timeout, though no context of net's own is there to
// cancel it — the poller holds the deadline. A host name dials too.
func TestDialTimeoutBoundsConnect(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("relies on Linux dropping SYNs to a full accept queue")
	}
	const dialTimeout = 200 * time.Millisecond
	n := startChaosNode(t, Config{ID: "x", DialTimeout: dialTimeout})

	t.Run("literal", func(t *testing.T) {
		addr := fullListener(t)
		var conns []net.Conn
		defer func() {
			for _, c := range conns {
				_ = c.Close()
			}
		}()
		for len(conns) < 8 {
			began := time.Now()
			conn, err := n.dial(addr)
			took := time.Since(began)
			if err == nil {
				conns = append(conns, conn)
				continue
			}
			var ne net.Error
			if !errors.As(err, &ne) || !ne.Timeout() || !errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("err = %v, want a net.Error timeout wrapping os.ErrDeadlineExceeded", err)
			}
			if took < dialTimeout || took > 1200*time.Millisecond {
				t.Fatalf("dial gave up after %v, want within [%v, 1.2s]", took, dialTimeout)
			}
			return
		}
		t.Fatalf("%d dials to a listener with backlog 0 all connected", len(conns))
	})

	t.Run("host name", func(t *testing.T) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		_, port, _ := net.SplitHostPort(ln.Addr().String())
		conn, err := n.dial(net.JoinHostPort("localhost", port))
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.Close()
	})
}

// TestDialAddsOnlyTheDeadline: dial + Close allocates what the bare literal
// dial under context.Background does plus the deadline boxed as a context
// — no timer context, cancel channel or watcher goroutine of net's.
func TestDialAddsOnlyTheDeadline(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	addr, handled := stubResponder(t, nil)
	n := startNode(t, "x", 1<<20, core.EA{}, "")
	dialClose := func(dial func() (net.Conn, error)) func() {
		return func() {
			conn, err := dial()
			if err != nil {
				t.Fatal(err)
			}
			_ = conn.Close()
			<-handled
		}
	}
	got := testing.AllocsPerRun(100, dialClose(func() (net.Conn, error) { return n.dial(addr) }))
	base := testing.AllocsPerRun(100, dialClose(func() (net.Conn, error) {
		return literalDialer.DialContext(context.Background(), "tcp", addr)
	}))
	if got > base+1 {
		t.Fatalf("dial + Close: %.0f allocs, bare literal dial + Close: %.0f; want at most 1 more", got, base)
	}
}
