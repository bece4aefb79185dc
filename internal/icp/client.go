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
	pending map[uint32]pendingQuery
	closed  bool
}

// pendingQuery is one in-flight fan-out's demux slot: where its replies
// go, and the URL a hit must echo to count.
type pendingQuery struct {
	ch  chan reply
	url string
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
func NewClient() *Client { return &Client{pending: make(map[uint32]pendingQuery)} }

// hitGraceMin/Max bound the post-first-hit drain window: long enough to
// catch replies already in flight from equally-near neighbours, short
// enough not to re-introduce the full-timeout wait the first hit avoided.
const (
	hitGraceMin = 2 * time.Millisecond
	hitGraceMax = 20 * time.Millisecond
)

// readBufPool recycles reply read buffers across reader goroutines (a
// client rebinding after faults, or many short-lived clients in tests);
// queryBufPool the buffers a fan-out's one query datagram is marshalled in.
var (
	readBufPool = sync.Pool{New: func() any {
		b := make([]byte, maxLen)
		return &b
	}}
	queryBufPool = sync.Pool{New: func() any { return new([]byte) }}
)

// Result is the outcome of one fan-out query.
type Result struct {
	// Hit is true if some neighbour answered ICP_OP_HIT.
	Hit bool
	// Responder is the address of the first neighbour that answered
	// ICP_OP_HIT, when Hit is true.
	Responder *net.UDPAddr
	// Responders lists every neighbour that answered ICP_OP_HIT, in
	// arrival order (fastest first). Responders[0] == Responder.
	Responders []*net.UDPAddr
	// Replies counts the answers received before the query resolved.
	Replies int
	// Answered lists the neighbours that replied at all (hit or miss),
	// in arrival order.
	Answered []*net.UDPAddr
	// SendFailed lists the neighbours the query datagram could not even
	// be sent to; they are counted as misses.
	SendFailed []*net.UDPAddr
	// TimedOut is true when the query resolved by exhausting the timeout
	// with some neighbours silent — the caller's evidence of peer
	// unreachability. A query that resolved on a hit or on a full set of
	// replies leaves it false.
	TimedOut bool
	// Elapsed is the time the exchange took.
	Elapsed time.Duration
}

// bind returns the shared query socket, binding it and starting the
// reader on first use.
func (c *Client) bind() (net.PacketConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, errors.New("icp: client closed")
	}
	if c.conn != nil {
		return c.conn, nil
	}
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
	return conn, nil
}

// readLoop is the demultiplexer: it parses every datagram arriving on the
// shared socket and hands it to the query whose request number it echoes.
// Stray, stale, corrupted, and unclaimed datagrams are dropped, exactly
// as a per-query socket would have ignored them. It exits on the first
// read error — Close closing the socket, or a fatal socket fault.
func (c *Client) readLoop(conn net.PacketConn) {
	bp := readBufPool.Get().(*[]byte)
	defer readBufPool.Put(bp)
	buf := *bp
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
		c.mu.Lock()
		q := c.pending[m.ReqNum]
		c.mu.Unlock()
		if q.ch == nil {
			continue
		}
		r := reply{op: m.Op, urlOK: string(url) == q.url, src: src}
		select {
		case q.ch <- r:
		default:
			// The query's buffer is full (duplicate floods); drop, as
			// UDP would.
		}
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
	return c.QueryHop(neighbours, url, timeout, -1)
}

// QueryHop is Query with the sender's trace hop depth stamped onto the
// datagrams (FlagTraceHop); hop < 0 sends a plain unstamped query.
func (c *Client) QueryHop(neighbours []*net.UDPAddr, url string, timeout time.Duration, hop int) (Result, error) {
	start := time.Now()
	if len(neighbours) == 0 {
		return Result{Elapsed: time.Since(start)}, nil
	}

	conn, err := c.bind()
	if err != nil {
		return Result{}, fmt.Errorf("icp: open query socket: %w", err)
	}

	reqNum := c.reqNum.Add(1)
	msg := Query(reqNum, url)
	msg.SetHop(hop)
	qp := queryBufPool.Get().(*[]byte)
	defer queryBufPool.Put(qp)
	query, err := msg.AppendTo((*qp)[:0])
	if err != nil {
		return Result{}, err
	}
	*qp = query

	// Register the demux slot before the first datagram can possibly
	// answer. The channel holds one reply per neighbour plus slack for
	// duplicates; overflow is dropped like any excess datagram.
	ch := make(chan reply, 2*len(neighbours))
	c.mu.Lock()
	c.pending[reqNum] = pendingQuery{ch: ch, url: url}
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.pending, reqNum)
		c.mu.Unlock()
	}()

	res := Result{Answered: make([]*net.UDPAddr, 0, len(neighbours))}
	sent := 0
	for _, n := range neighbours {
		if err := sendTo(conn, query, n); err != nil {
			// An unsendable neighbour is a miss, not a failed query:
			// the rest of the fan-out proceeds.
			res.SendFailed = append(res.SendFailed, n)
			continue
		}
		sent++
	}
	if sent == 0 {
		res.Elapsed = time.Since(start)
		return res, nil
	}

	deadline := start.Add(timeout)
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for res.Replies < sent {
		select {
		case r := <-ch:
			from := neighbourAt(neighbours, r.src)
			res.Replies++
			res.Answered = append(res.Answered, from)
			if r.op == OpHit && r.urlOK {
				res.Responders = append(res.Responders, from)
				if !res.Hit {
					res.Hit = true
					res.Responder = from
					// Resolve now, but drain briefly for other hits
					// already in flight: they are the retry targets if
					// this responder dies before the follow-up fetch.
					grace := time.Since(start)
					if grace < hitGraceMin {
						grace = hitGraceMin
					}
					if grace > hitGraceMax {
						grace = hitGraceMax
					}
					if remaining := time.Until(deadline); grace > remaining {
						grace = remaining
					}
					if !timer.Stop() {
						<-timer.C
					}
					timer.Reset(grace)
				}
			}
		case <-timer.C:
			// Deadline: with no hit this is the timeout path (silent
			// neighbours count as misses); with a hit it merely ends
			// the post-hit grace drain.
			res.TimedOut = !res.Hit
			res.Elapsed = time.Since(start)
			return res, nil
		}
	}
	res.Elapsed = time.Since(start)
	return res, nil
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

// neighbourAt maps a reply's source back to the caller's own address for
// that neighbour; a source that is no neighbour gets a fresh address.
func neighbourAt(neighbours []*net.UDPAddr, src netip.AddrPort) *net.UDPAddr {
	src = unmapped(src)
	for _, n := range neighbours {
		if unmapped(n.AddrPort()) == src {
			return n
		}
	}
	return net.UDPAddrFromAddrPort(src)
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
