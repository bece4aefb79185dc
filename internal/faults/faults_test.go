package faults

import (
	"errors"
	"net"
	"os"
	"syscall"
	"testing"
	"time"
)

func mustInjector(t *testing.T, cfg Config) *Injector {
	t.Helper()
	in, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{UDPDropRate: 1.5}); err == nil {
		t.Fatal("rate > 1 accepted")
	}
	if _, err := New(Config{TCPStallRate: -0.1}); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := New(Config{UDPDelay: -time.Second}); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestDeterministicDraws(t *testing.T) {
	draws := func(seed int64) []bool {
		in := mustInjector(t, Config{Seed: seed, UDPDropRate: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.draw(0.5, new(int64))
		}
		return out
	}
	a, b := draws(7), draws(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identically-seeded injectors", i)
		}
	}
	c := draws(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical draw sequences")
	}
}

// udpPair returns two connected-via-loopback UDP conns, the second wrapped.
func udpPair(t *testing.T, in *Injector) (net.PacketConn, net.PacketConn, net.Addr) {
	t.Helper()
	a, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = a.Close() })
	b, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = b.Close() })
	return a, in.WrapPacketConn(b), a.LocalAddr()
}

func TestUDPDropAll(t *testing.T) {
	in := mustInjector(t, Config{UDPDropRate: 1})
	a, b, aAddr := udpPair(t, in)

	if _, err := b.WriteTo([]byte("ping"), aAddr); err != nil {
		t.Fatalf("dropped send errored: %v", err)
	}
	_ = a.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	buf := make([]byte, 16)
	if _, _, err := a.ReadFrom(buf); err == nil {
		t.Fatal("datagram delivered despite drop rate 1")
	}
	if s := in.Stats(); s.UDPDropped != 1 {
		t.Fatalf("dropped = %d, want 1", s.UDPDropped)
	}
}

func TestUDPCorruptAndTruncate(t *testing.T) {
	in := mustInjector(t, Config{UDPCorruptRate: 1})
	a, b, _ := udpPair(t, in)
	if _, err := a.WriteTo([]byte{1, 2, 3, 4}, b.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	_ = b.SetReadDeadline(time.Now().Add(time.Second))
	buf := make([]byte, 16)
	n, _, err := b.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 || buf[3] == 4 {
		t.Fatalf("datagram not corrupted: n=%d last=%d", n, buf[3])
	}

	in2 := mustInjector(t, Config{UDPTruncRate: 1})
	a2, b2, _ := udpPair(t, in2)
	if _, err := a2.WriteTo([]byte{1, 2, 3, 4}, b2.LocalAddr()); err != nil {
		t.Fatal(err)
	}
	_ = b2.SetReadDeadline(time.Now().Add(time.Second))
	n, _, err = b2.ReadFrom(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("truncated read n=%d, want 2", n)
	}
}

// tcpPair returns a connected TCP pair with the client side wrapped.
func tcpPair(t *testing.T, in *Injector) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		done <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server = <-done
	t.Cleanup(func() { _ = raw.Close(); _ = server.Close() })
	return in.WrapConn(raw), server
}

func TestTCPStallRespectsDeadline(t *testing.T) {
	in := mustInjector(t, Config{TCPStallRate: 1})
	client, server := tcpPair(t, in)
	if _, err := server.Write([]byte("data the client will never see")); err != nil {
		t.Fatal(err)
	}
	_ = client.SetReadDeadline(time.Now().Add(150 * time.Millisecond))
	start := time.Now()
	buf := make([]byte, 16)
	_, err := client.Read(buf)
	if err == nil {
		t.Fatal("stalled conn delivered data")
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("stall error = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed < 100*time.Millisecond {
		t.Fatalf("stall returned after %v, before the deadline", elapsed)
	}
	if s := in.Stats(); s.Stalls != 1 {
		t.Fatalf("stalls = %d, want 1", s.Stalls)
	}
}

func TestTCPReset(t *testing.T) {
	in := mustInjector(t, Config{TCPResetRate: 1})
	client, _ := tcpPair(t, in)
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatal("write survived reset rate 1")
	}
	// The conn stays broken.
	if _, err := client.Read(make([]byte, 1)); err == nil {
		t.Fatal("read survived an earlier reset")
	}
	if s := in.Stats(); s.Resets != 1 {
		t.Fatalf("resets = %d, want 1 (sticky)", s.Resets)
	}
}

func TestDialErr(t *testing.T) {
	in := mustInjector(t, Config{TCPDialErrRate: 1})
	if !in.FailDial() {
		t.Fatal("dial survived dial-err rate 1")
	}
	if s := in.Stats(); s.DialErrors != 1 {
		t.Fatalf("dial errors = %d, want 1", s.DialErrors)
	}
	if !errors.Is(ErrDialRefused, syscall.ECONNREFUSED) {
		t.Fatalf("ErrDialRefused = %v, want ECONNREFUSED", ErrDialRefused)
	}
	// A zero rate never fails a dial and counts nothing.
	clean := mustInjector(t, Config{})
	for i := 0; i < 100; i++ {
		if clean.FailDial() {
			t.Fatal("dial failed at dial-err rate 0")
		}
	}
	if s := clean.Stats(); s.DialErrors != 0 {
		t.Fatalf("dial errors = %d at rate 0, want 0", s.DialErrors)
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("seed=42, udp-drop=0.3,tcp-stall=0.05,udp-delay=20ms,tcp-byte-delay=1ms")
	if err != nil {
		t.Fatal(err)
	}
	want := Config{
		Seed:         42,
		UDPDropRate:  0.3,
		TCPStallRate: 0.05,
		UDPDelay:     20 * time.Millisecond,
		TCPByteDelay: time.Millisecond,
	}
	if cfg != want {
		t.Fatalf("cfg = %+v, want %+v", cfg, want)
	}
	if _, err := ParseSpec("udp-drop=2"); err == nil {
		t.Fatal("out-of-range rate accepted")
	}
	if _, err := ParseSpec("bogus=1"); err == nil {
		t.Fatal("unknown key accepted")
	}
	if _, err := ParseSpec("udp-drop"); err == nil {
		t.Fatal("missing value accepted")
	}
	if cfg, err := ParseSpec(""); err != nil || cfg != (Config{}) {
		t.Fatalf("empty spec: cfg=%+v err=%v", cfg, err)
	}
}
