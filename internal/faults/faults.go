// Package faults is a deterministic, seedable fault injector for the live
// node path. It wraps net.Conn / net.PacketConn values and listeners, and
// draws which outbound dials fail, so tests and manual chaos runs can
// drop, delay, truncate, or corrupt UDP datagrams and fail, reset, stall,
// or slow TCP streams — without touching the protocol code under test.
//
// Every decision is drawn from a single seeded PRNG, so a chaos run is
// reproducible: same seed, same faults, same order. The injector counts
// what it injects (see Stats) so tests can assert that faults actually
// fired rather than silently configuring a zero rate.
package faults

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"syscall"
	"time"
)

// Config selects which faults to inject and how often. All rates are
// probabilities in [0, 1]; the zero value injects nothing.
type Config struct {
	// Seed seeds the injector's PRNG. Runs with the same seed and the
	// same sequence of operations see the same faults.
	Seed int64

	// UDPDropRate drops a datagram each time it traverses a wrapped
	// packet conn: outbound drops are swallowed sends (reported as
	// successful, like a congested network), inbound drops are received
	// datagrams discarded before the reader sees them.
	UDPDropRate float64
	// UDPCorruptRate flips a byte of an inbound datagram's payload.
	UDPCorruptRate float64
	// UDPTruncRate delivers only the first half of an inbound datagram.
	UDPTruncRate float64
	// UDPDelay holds each inbound datagram for the given duration before
	// delivering it (applied after the drop/corrupt/truncate draws).
	UDPDelay time.Duration

	// TCPDialErrRate fails a dial (FailDial) with ECONNREFUSED up front.
	TCPDialErrRate float64
	// TCPResetRate aborts a wrapped stream mid-transfer: the draw happens
	// per Read/Write, and once it fires every later operation on that
	// conn fails with ECONNRESET.
	TCPResetRate float64
	// TCPStallRate freezes a wrapped stream: the draw happens once per
	// conn at creation, and a stalled conn's Reads block until the read
	// deadline expires (or the conn is closed), then fail with a timeout.
	TCPStallRate float64
	// TCPByteDelay slows a stream by sleeping this long before every
	// Read — a crude bandwidth throttle.
	TCPByteDelay time.Duration
}

func (c Config) validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"udp-drop", c.UDPDropRate},
		{"udp-corrupt", c.UDPCorruptRate},
		{"udp-trunc", c.UDPTruncRate},
		{"tcp-dial-err", c.TCPDialErrRate},
		{"tcp-reset", c.TCPResetRate},
		{"tcp-stall", c.TCPStallRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faults: rate %s=%v outside [0,1]", r.name, r.v)
		}
	}
	if c.UDPDelay < 0 || c.TCPByteDelay < 0 {
		return fmt.Errorf("faults: negative delay")
	}
	return nil
}

// Stats counts the faults an Injector has injected.
type Stats struct {
	UDPDropped   int64
	UDPCorrupted int64
	UDPTruncated int64
	DialErrors   int64
	Resets       int64
	Stalls       int64
}

// Injector draws faults deterministically from a seeded PRNG and applies
// them through conn wrappers. It is safe for concurrent use; concurrency
// itself can reorder which operation sees which draw, so fully
// deterministic tests should drive it from one goroutine.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// New returns an Injector for cfg, or an error when a rate is outside
// [0, 1] or a delay is negative.
func New(cfg Config) (*Injector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// Stats returns a snapshot of the injected-fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// draw reports whether a fault with probability rate fires now, counting
// it in *n, one of the injector's Stats fields, when it does.
func (in *Injector) draw(rate float64, n *int64) bool {
	if rate <= 0 {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	fired := in.rng.Float64() < rate
	if fired {
		*n++
	}
	return fired
}

// FlipBits returns a copy of data with n random single-bit flips drawn
// from the injector's seeded PRNG — file-level corruption injection for
// crash-safety tests (the on-disk analogue of UDPCorruptRate). Flips may
// land on the same bit twice; n is attempts, not guaranteed distinct
// corruptions. Empty data or n <= 0 returns data unchanged.
func (in *Injector) FlipBits(data []byte, n int) []byte {
	if len(data) == 0 || n <= 0 {
		return data
	}
	out := append([]byte(nil), data...)
	in.mu.Lock()
	defer in.mu.Unlock()
	for i := 0; i < n; i++ {
		pos := in.rng.Intn(len(out))
		out[pos] ^= 1 << uint(in.rng.Intn(8))
	}
	return out
}

// ErrDialRefused is what a dial that FailDial fails returns.
var ErrDialRefused error = &net.OpError{Op: "dial", Net: "tcp", Err: syscall.ECONNREFUSED}

// FailDial draws and counts a dial failure (TCPDialErrRate). The caller
// fails a drawn dial with ErrDialRefused and wraps any other's conn.
func (in *Injector) FailDial() bool {
	return in.draw(in.cfg.TCPDialErrRate, &in.stats.DialErrors)
}

// WrapConn applies the TCP stream faults to c. The stall draw happens here,
// once per conn.
func (in *Injector) WrapConn(c net.Conn) net.Conn {
	fc := &conn{Conn: c, in: in}
	if in.draw(in.cfg.TCPStallRate, &in.stats.Stalls) {
		fc.stalled = true
		fc.unblock = make(chan struct{})
	}
	return fc
}

// WrapListener wraps every conn accepted by l with the TCP stream faults,
// injecting on the responder side of a transfer.
func (in *Injector) WrapListener(l net.Listener) net.Listener {
	return &listener{Listener: l, in: in}
}

// WrapPacketConn applies the UDP datagram faults to pc.
func (in *Injector) WrapPacketConn(pc net.PacketConn) net.PacketConn {
	return &packetConn{PacketConn: pc, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.WrapConn(c), nil
}

// conn is a net.Conn with reset, stall, and throttle faults.
type conn struct {
	net.Conn
	in *Injector

	mu           sync.Mutex
	reset        bool
	stalled      bool
	unblock      chan struct{} // closed on Close when stalled
	readDeadline time.Time
}

var errReset = &net.OpError{Op: "read", Err: syscall.ECONNRESET}

func (c *conn) maybeReset() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.reset {
		return errReset
	}
	if c.in.draw(c.in.cfg.TCPResetRate, &c.in.stats.Resets) {
		c.reset = true
		return errReset
	}
	return nil
}

// stallWait blocks a stalled conn until its read deadline passes or the
// conn is closed, mimicking a peer that stopped sending mid-body.
func (c *conn) stallWait() error {
	c.mu.Lock()
	deadline := c.readDeadline
	unblock := c.unblock
	c.mu.Unlock()

	if deadline.IsZero() {
		// No deadline set: block only until close, like a real dead
		// stream under a deadline-free reader.
		<-unblock
		return errReset
	}
	wait := time.Until(deadline)
	if wait > 0 {
		t := time.NewTimer(wait)
		defer t.Stop()
		select {
		case <-t.C:
		case <-unblock:
			return errReset
		}
	}
	return &net.OpError{Op: "read", Err: os.ErrDeadlineExceeded}
}

func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	stalled := c.stalled
	c.mu.Unlock()
	if stalled {
		return 0, c.stallWait()
	}
	if err := c.maybeReset(); err != nil {
		return 0, err
	}
	if d := c.in.cfg.TCPByteDelay; d > 0 {
		time.Sleep(d)
	}
	return c.Conn.Read(p)
}

func (c *conn) Write(p []byte) (int, error) {
	if err := c.maybeReset(); err != nil {
		return 0, err
	}
	return c.Conn.Write(p)
}

func (c *conn) Close() error {
	c.mu.Lock()
	if c.stalled && c.unblock != nil {
		select {
		case <-c.unblock:
		default:
			close(c.unblock)
		}
	}
	c.mu.Unlock()
	return c.Conn.Close()
}

func (c *conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.readDeadline = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// packetConn is a net.PacketConn with drop, corrupt, truncate, and delay
// faults on datagrams.
type packetConn struct {
	net.PacketConn
	in *Injector
}

func (p *packetConn) WriteTo(b []byte, addr net.Addr) (int, error) {
	if p.in.draw(p.in.cfg.UDPDropRate, &p.in.stats.UDPDropped) {
		// A dropped send looks successful to the sender, exactly like a
		// datagram lost in the network.
		return len(b), nil
	}
	return p.PacketConn.WriteTo(b, addr)
}

func (p *packetConn) ReadFrom(b []byte) (int, net.Addr, error) {
	for {
		n, addr, err := p.PacketConn.ReadFrom(b)
		if err != nil {
			return n, addr, err
		}
		if p.in.draw(p.in.cfg.UDPDropRate, &p.in.stats.UDPDropped) {
			continue // lost before delivery; keep waiting
		}
		if n > 0 && p.in.draw(p.in.cfg.UDPCorruptRate, &p.in.stats.UDPCorrupted) {
			b[n-1] ^= 0xff
		}
		if p.in.draw(p.in.cfg.UDPTruncRate, &p.in.stats.UDPTruncated) {
			n /= 2
		}
		if d := p.in.cfg.UDPDelay; d > 0 {
			time.Sleep(d)
		}
		return n, addr, nil
	}
}
