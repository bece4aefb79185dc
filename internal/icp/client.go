package icp

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Client issues fan-out ICP queries, as a proxy does on a local miss: one
// ICP_OP_QUERY per neighbour, then wait for the first ICP_OP_HIT, or until
// every neighbour answered a miss, or until the timeout expires (lost
// datagrams are expected; ICP treats silence as a miss).
//
// The fan-out is fault-tolerant: a neighbour whose datagram cannot even be
// sent is counted as a miss instead of aborting the query, and after the
// first hit the client keeps draining replies for a short grace window so
// every hit responder is collected — giving the caller fallback targets if
// the first responder dies before the follow-up fetch.
//
// One UDP socket serves every query: it is bound lazily on the first
// Query and lives until Close. A single reader goroutine parses replies
// and routes them to the in-flight query by ICP request number, so
// concurrent queries multiplex the socket instead of paying a socket
// create/bind/close per cache miss.
type Client struct {
	reqNum atomic.Uint32

	// Listen, when non-nil, replaces the socket factory — e.g. to wrap
	// the socket with a fault injector. Set it before the first Query;
	// the socket is bound once and closed by Close.
	Listen func() (net.PacketConn, error)

	mu      sync.Mutex
	conn    net.PacketConn
	pending map[uint32]*slot
	closed  bool
}

// slot is one fan-out's reused record: the demux channel its replies
// arrive on, the URL a hit must echo to count, its timer, the datagram
// buffer, and one heard mark per neighbour. Its life cycle is register →
// send → wait → unregister → drain → return to slotPool; the reader
// delivers under Client.mu, so once a slot is unregistered nothing can
// reach its channel, and draining it then leaves the next query that
// draws the slot nothing of this one's.
type slot struct {
	ch    chan reply
	timer *time.Timer // stopped and drained whenever the slot is pooled
	url   string
	query []byte
	heard []bool
}

// slotPool's slots start with no channel or marks: a fan-out wider than
// the slot it drew makes them anew at its width, which the slot keeps.
var slotPool = sync.Pool{New: func() any {
	s := &slot{timer: time.NewTimer(time.Hour)}
	s.stopTimer()
	return s
}}

// stopTimer leaves the timer stopped with an empty channel, whether or
// not it fired: go.mod's language version keeps timer channels buffered,
// so a Reset is only safe after Stop and a non-blocking drain.
func (s *slot) stopTimer() {
	if !s.timer.Stop() {
		select {
		case <-s.timer.C:
		default:
		}
	}
}

// reply is one parsed, demultiplexed answer delivered to its query. The
// source travels as a netip value and the query maps it back to the
// caller's own *net.UDPAddr, so a reply leaves nothing on the heap.
type reply struct {
	op    Opcode
	urlOK bool // the reply echoes the query's URL
	src   netip.AddrPort
}

// NewClient returns a ready Client, safe for concurrent use. Callers that
// are done querying should Close it to release the shared socket.
func NewClient() *Client { return &Client{pending: make(map[uint32]*slot)} }

// hitGraceFloor/Cap bound the post-first-hit drain window as fractions of
// the query timeout (2.3 ms and 18.75 ms at the 150 ms default): long
// enough to catch replies already in flight from equally-near neighbours,
// short enough not to re-introduce the full-timeout wait the first hit
// avoided. A caller that sets a long timeout to hear every holder gets a
// drain as much longer.
const (
	hitGraceFloor = 64 // the window is at least timeout/64
	hitGraceCap   = 8  // and at most timeout/8
)

// Result is the outcome of one fan-out query. Its slices hold the
// caller's own neighbour addresses and belong to the Result: QueryInto
// refills them in place, so they are valid until the Result is handed to
// the next QueryInto.
type Result struct {
	// Hit is true if some neighbour answered ICP_OP_HIT.
	Hit bool
	// Responders lists every neighbour that answered ICP_OP_HIT, in
	// arrival order (fastest first).
	Responders []*net.UDPAddr
	// Answered lists the neighbours that replied at all (hit or miss),
	// each once, in arrival order.
	Answered []*net.UDPAddr
	// SendFailed lists the neighbours the query datagram could not even
	// be sent to; they are counted as misses.
	SendFailed []*net.UDPAddr
	// TimedOut is true when the query resolved by exhausting the timeout
	// with some neighbours silent — the caller's evidence of peer
	// unreachability. A query that resolved on a hit or on a full set of
	// replies leaves it false.
	TimedOut bool
}

// register binds the shared query socket on first use (starting the
// reader) and enters s in the demux table under reqNum — before the first
// datagram can possibly be answered.
func (c *Client) register(reqNum uint32, s *slot) (net.PacketConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("icp: client closed")
	}
	if c.conn == nil {
		var (
			conn net.PacketConn
			err  error
		)
		if c.Listen != nil {
			conn, err = c.Listen()
		} else {
			conn, err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
			if err != nil {
				// Fall back to an unspecified local address (non-loopback
				// peers).
				conn, err = net.ListenUDP("udp", nil)
			}
		}
		if err != nil {
			return nil, err
		}
		c.conn = conn
		go c.readLoop(conn)
	}
	c.pending[reqNum] = s
	return c.conn, nil
}

// release unregisters the slot, empties it and pools it. After the delete
// the reader can no longer find the slot, so what the drain leaves behind
// is an empty channel: a reply that arrives after its query resolved is
// dropped by the reader, never seen by the slot's next query.
func (c *Client) release(reqNum uint32, s *slot) {
	c.mu.Lock()
	delete(c.pending, reqNum)
	c.mu.Unlock()
	s.stopTimer()
	for len(s.ch) > 0 {
		<-s.ch
	}
	s.url = ""
	slotPool.Put(s)
}

// readLoop is the demultiplexer: it parses every datagram arriving on the
// shared socket and hands it to the query whose request number it echoes.
// Stray, stale, corrupted, and unclaimed datagrams are dropped, exactly
// as a per-query socket would have ignored them. It exits on the first
// read error — Close closing the socket, or a fatal socket fault.
func (c *Client) readLoop(conn net.PacketConn) {
	buf := make([]byte, maxLen)
	udp, _ := conn.(*net.UDPConn)
	for {
		var (
			n   int
			src netip.AddrPort
			err error
		)
		if udp != nil {
			n, src, err = udp.ReadFromUDPAddrPort(buf)
		} else {
			// A wrapped socket (fault injection) only speaks net.Addr.
			var peer net.Addr
			if n, peer, err = conn.ReadFrom(buf); err == nil {
				src = addrPortOf(peer)
			}
		}
		if err != nil {
			return
		}
		m, url, err := parse(buf[:n])
		if err != nil || !src.IsValid() {
			continue
		}
		// Delivered under the lock: the slot is still this request
		// number's while it is in the table, and release takes the same
		// lock before the slot can go to another query. The send never
		// blocks.
		c.mu.Lock()
		if s := c.pending[m.ReqNum]; s != nil {
			select {
			case s.ch <- reply{op: m.Op, urlOK: string(url) == s.url, src: src}:
			default:
				// The query's buffer is full (duplicate floods); drop, as
				// UDP would.
			}
		}
		c.mu.Unlock()
	}
}

// Close releases the shared socket and fails any in-flight queries'
// pending reads (they resolve via their timeout). Further Query calls
// error. Close is idempotent.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	c.conn = nil
	c.mu.Unlock()
	if conn != nil {
		return conn.Close()
	}
	return nil
}

// Query sends an ICP query for url to every neighbour and reports every
// hit, resolving on the first. A neighbour that does not answer within
// timeout counts as a miss, as does one the datagram cannot be sent to.
func (c *Client) Query(neighbours []*net.UDPAddr, url string, timeout time.Duration) (Result, error) {
	var res Result
	err := c.QueryInto(&res, neighbours, url, timeout, -1)
	return res, err
}

// QueryInto is Query filling a caller-supplied Result — reusing its
// slices, so a Result kept across queries makes the fan-out allocate
// nothing — with the sender's trace hop depth stamped onto the datagrams
// (FlagTraceHop); hop < 0 sends a plain unstamped query. On error res is
// left empty.
func (c *Client) QueryInto(res *Result, neighbours []*net.UDPAddr, url string, timeout time.Duration, hop int) error {
	*res = Result{Responders: res.Responders[:0], Answered: res.Answered[:0], SendFailed: res.SendFailed[:0]}
	if len(neighbours) == 0 {
		return nil
	}
	start := time.Now()

	s := slotPool.Get().(*slot)
	if len(neighbours) > len(s.heard) {
		// One reply per neighbour plus as much slack for duplicates;
		// overflow is dropped like any excess datagram.
		s.ch = make(chan reply, 2*len(neighbours))
		s.heard = make([]bool, len(neighbours))
	}
	s.url = url
	reqNum := c.reqNum.Add(1)
	conn, err := c.register(reqNum, s)
	if err != nil {
		slotPool.Put(s)
		return fmt.Errorf("icp: open query socket: %w", err)
	}
	defer c.release(reqNum, s)
	msg := Query(reqNum, url)
	msg.SetHop(hop)
	if s.query, err = msg.AppendTo(s.query[:0]); err != nil {
		return err
	}

	// heard[i] marks neighbours[i] as accounted for: a reply from it was
	// counted, or its datagram never left.
	heard := s.heard[:len(neighbours)]
	clear(heard)
	if cap(res.Answered) < len(neighbours) {
		res.Answered = make([]*net.UDPAddr, 0, len(neighbours))
	}
	sent := 0
	for i, n := range neighbours {
		if err := sendTo(conn, s.query, n); err != nil {
			// An unsendable neighbour is a miss, not a failed query:
			// the rest of the fan-out proceeds.
			res.SendFailed = append(res.SendFailed, n)
			heard[i] = true
			continue
		}
		sent++
	}
	if sent == 0 {
		return nil
	}

	s.timer.Reset(timeout)
	for len(res.Answered) < sent {
		select {
		case r := <-s.ch:
			// Each neighbour counts once: a duplicated datagram, or one
			// from a source that was never asked, must not stand in for
			// a neighbour still to be heard from.
			i := unheard(neighbours, heard, r.src)
			if i < 0 {
				continue
			}
			heard[i] = true
			res.Answered = append(res.Answered, neighbours[i])
			if r.op == OpHit && r.urlOK {
				res.Responders = append(res.Responders, neighbours[i])
				if !res.Hit {
					res.Hit = true
					// Resolve now, but drain briefly for other hits
					// already in flight: they are the retry targets if
					// this responder dies before the follow-up fetch.
					elapsed := time.Since(start)
					grace := min(max(elapsed, timeout/hitGraceFloor), timeout/hitGraceCap, timeout-elapsed)
					s.stopTimer()
					s.timer.Reset(grace)
				}
			}
		case <-s.timer.C:
			// Deadline: with no hit this is the timeout path (silent
			// neighbours count as misses); with a hit it merely ends
			// the post-hit grace drain.
			res.TimedOut = !res.Hit
			return nil
		}
	}
	return nil
}

// sendTo writes one datagram. A plain UDP socket takes the destination as
// a netip value, sparing the sockaddr net.UDPConn.WriteTo allocates per
// call; IPv4-mapped forms are unmapped first, which both socket families
// accept (an AF_INET socket refuses the mapped form).
func sendTo(conn net.PacketConn, b []byte, to *net.UDPAddr) error {
	if udp, ok := conn.(*net.UDPConn); ok {
		if ap := unmapped(to.AddrPort()); ap.IsValid() {
			_, err := udp.WriteToUDPAddrPort(b, ap)
			return err
		}
	}
	_, err := conn.WriteTo(b, to)
	return err
}

func unmapped(ap netip.AddrPort) netip.AddrPort {
	return netip.AddrPortFrom(ap.Addr().Unmap(), ap.Port())
}

// unheard maps a reply's source back to the index of the neighbour it
// came from, skipping neighbours already heard — so a duplicate reply, like
// one from a source that is no neighbour at all, maps to -1, and a
// neighbour listed twice is matched once per listing.
func unheard(neighbours []*net.UDPAddr, heard []bool, src netip.AddrPort) int {
	src = unmapped(src)
	for i, n := range neighbours {
		if !heard[i] && unmapped(n.AddrPort()) == src {
			return i
		}
	}
	return -1
}

// addrPortOf recovers the netip form of a reply's source address; the
// zero value means it has none.
func addrPortOf(a net.Addr) netip.AddrPort {
	if u, ok := a.(*net.UDPAddr); ok {
		return u.AddrPort()
	}
	ap, _ := netip.ParseAddrPort(a.String())
	return ap
}
