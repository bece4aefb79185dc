package netnode

import (
	"net"
	"syscall"
	"testing"
)

// keepAlive reads SO_KEEPALIVE off a TCP conn's socket.
func keepAlive(t *testing.T, c net.Conn) bool {
	t.Helper()
	raw, err := c.(*net.TCPConn).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var on int
	var serr error
	if err := raw.Control(func(fd uintptr) {
		on, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_KEEPALIVE)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return on != 0
}

// TestExchangeConnsSkipKeepAlive: a conn carries one exchange, so neither
// the node's dial nor the fetch listener that nodes and the origin accept
// on turns TCP keep-alive on. The control is a plain net.Listen pair, on
// which Go enables keep-alive on both ends.
func TestExchangeConnsSkipKeepAlive(t *testing.T) {
	pair := func(ln net.Listener, dial func(string) (net.Conn, error)) (client, server net.Conn) {
		t.Helper()
		accepted := make(chan net.Conn, 1)
		go func() {
			c, _ := ln.Accept()
			accepted <- c
		}()
		client, err := dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		server = <-accepted
		if server == nil {
			t.Fatal("accept failed")
		}
		t.Cleanup(func() { _ = client.Close(); _ = server.Close() })
		return client, server
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, s := pair(ln, func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) })
	if !keepAlive(t, c) || !keepAlive(t, s) {
		t.Fatal("control: plain dial/listen left SO_KEEPALIVE off, so the check reads nothing")
	}

	n := startChaosNode(t, Config{ID: "k"})
	ln2, err := listenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	c, s = pair(ln2, n.dial)
	if keepAlive(t, c) {
		t.Error("the node's dial turned SO_KEEPALIVE on")
	}
	if keepAlive(t, s) {
		t.Error("listenTCP's accepted conn has SO_KEEPALIVE on")
	}
}
