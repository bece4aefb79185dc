package netnode

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"sync"
	"time"

	"eacache/internal/faults"
	"eacache/internal/hproto"
	"eacache/internal/obs"
)

// errNotFound marks a responder that answered the exchange but does not
// hold (and could not resolve) the document — an application-level miss,
// not a transport failure, so it is never retried and never counts
// against the peer's health.
var errNotFound = errors.New("netnode: document not at responder")

// literalDialer dials an ip:port under a connectDeadline: one address has
// no Happy Eyeballs race, and with Done nil net's connect hands the deadline
// to the poller as the socket's write deadline, with no timer or goroutine.
var literalDialer = net.Dialer{FallbackDelay: -1}

type connectDeadline time.Time

func (d connectDeadline) Deadline() (time.Time, bool) { return time.Time(d), true }
func (connectDeadline) Done() <-chan struct{}         { return nil }
func (connectDeadline) Err() error                    { return nil }
func (connectDeadline) Value(any) any                 { return nil }

// dial opens the TCP conn for one exchange within DialTimeout. A host name
// keeps net.DialTimeout, whose cancellable deadline also bounds the lookup.
// A fault injector may refuse the dial, and wraps the conn of one it lets by.
func (n *Node) dial(addr string) (conn net.Conn, err error) {
	if n.faults != nil && n.faults.FailDial() {
		return nil, faults.ErrDialRefused
	}
	if _, perr := netip.ParseAddrPort(addr); perr == nil {
		conn, err = literalDialer.DialContext(connectDeadline(time.Now().Add(n.dialTimeout)), "tcp", addr)
	} else {
		conn, err = net.DialTimeout("tcp", addr, n.dialTimeout)
	}
	if err == nil && n.faults != nil {
		conn = n.faults.WrapConn(conn)
	}
	return conn, err
}

// exchange is the node's one outbound hproto round trip — every GET, PUT
// and digest fetch to a peer, parent or origin goes through it. It dials
// addr, bounds the whole exchange by FetchTimeout on the real clock
// (Config.Now is the cache-visible clock only), writes req and then
// bodySize synthetic body bytes when a PUT carries some, and reads the
// response head through a pooled record,
// counting a clamped responder age. The body of a 200 is copied into sink
// (nil leaves it unread; other statuses carry none); one shorter than
// advertised maps to hproto.ErrTruncatedBody. Conn and record are released
// before returning, so the caller holds nothing but the Response — which
// is also returned, as far as it was read, beside a body error.
func (n *Node) exchange(addr string, req hproto.Request, bodySize int64, sink io.Writer) (hproto.Response, error) {
	conn, err := n.dial(addr)
	if err != nil {
		return hproto.Response{}, fmt.Errorf("dial %s: %w", addr, err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(n.fetchTimeout))

	rec := getRec(conn)
	defer putRec(rec)
	if err := hproto.WriteRequest(conn, req); err != nil {
		return hproto.Response{}, err
	}
	if bodySize > 0 {
		if _, err := rec.zeros(bodySize).WriteTo(conn); err != nil {
			return hproto.Response{}, err
		}
	}
	resp, err := hproto.ReadResponse(rec.br)
	if err != nil {
		return hproto.Response{}, err
	}
	if resp.AgeClamped {
		n.om.clamps[clampAge].Inc()
		n.warn("clamped bad responder age", nil, "responder", addr)
	}
	if sink != nil && resp.Status == hproto.StatusOK {
		if err := rec.copyBody(sink, resp.ContentLength); err != nil {
			return resp, fmt.Errorf("read body from %s: %w: %v", addr, hproto.ErrTruncatedBody, err)
		}
	}
	return resp, nil
}

// fetchFrom performs one hproto GET against addr, discarding the body and
// returning its length, the piggybacked responder age, and the body's
// source (cache or origin; an absent header means cache). A non-OK status
// maps to errNotFound; a body shorter than advertised maps to
// hproto.ErrTruncatedBody. A sampled trace's context rides the request
// (X-Trace-Context) so the responder records a remote-parented leg of
// the same trace, and the responder's echoed record is annotated back
// onto tr. A nonzero ringFP is the fingerprint of the hash ring addr was
// located on: the responder compares it with its own to tell failover
// (matching views) from staleness before it keeps a resolved copy.
func (n *Node) fetchFrom(tr *obs.Trace, addr, url string, sizeHint int64, requesterAge time.Duration, rslv bool, ringFP uint64) (int64, time.Duration, string, error) {
	req := hproto.Request{
		URL:          url,
		RequesterAge: requesterAge,
		SizeHint:     sizeHint,
		Resolve:      rslv,
		RingFP:       ringFP,
		Trace:        tr.Context(),
	}
	resp, err := n.exchange(addr, req, 0, io.Discard)
	if resp.Trace != "" && tr != nil {
		if rc, perr := obs.ParseTraceContext(resp.Trace); perr == nil {
			// The responder's echoed record ID: the cross-node edge the
			// stitcher draws from this fetch span to the responder's leg.
			tr.Annotate("remote_id", rc.ParentID)
		} else {
			n.om.clamps[clampTrace].Inc()
		}
	}
	if err != nil {
		return 0, resp.ResponderAge, "", err
	}
	if resp.Status != hproto.StatusOK {
		return 0, resp.ResponderAge, "", fmt.Errorf("fetch %s from %s: status %d: %w", url, addr, resp.Status, errNotFound)
	}
	source := resp.Source
	if source == "" {
		source = hproto.SourceCache
	}
	return resp.ContentLength, resp.ResponderAge, source, nil
}

// connRec is the reused record of one hproto exchange, on whichever side
// of the conn: the bufio.Reader its request or response head is parsed
// through, the limiter a body is read through, and the synthetic body a
// response (or a PUT) streams — dialled in exchange, accepted in server.go
// and origin.go — so a steady-state exchange allocates none of them. All
// three are only valid between getRec and putRec.
type connRec struct {
	br   *bufio.Reader
	body io.LimitedReader // over br
	zero zeroBody
}

var recPool = sync.Pool{New: func() any {
	rec := &connRec{br: bufio.NewReader(nil)}
	rec.body.R = rec.br
	return rec
}}

// getRec borrows a pooled record with its reader bound to r; return it
// with putRec once the exchange is over.
func getRec(r io.Reader) *connRec {
	rec := recPool.Get().(*connRec)
	rec.br.Reset(r)
	return rec
}

func putRec(rec *connRec) {
	rec.br.Reset(nil) // drop the conn reference while pooled
	recPool.Put(rec)
}

// copyBody copies exactly n body bytes from the record's reader to dst —
// io.CopyN without the LimitedReader it allocates per call, and like it
// reporting a body that ends early as io.EOF.
func (rec *connRec) copyBody(dst io.Writer, n int64) error {
	rec.body.N = n
	written, err := io.Copy(dst, &rec.body)
	if err == nil && written < n {
		err = io.EOF
	}
	return err
}

// zeros is the record's synthetic body, reset to stream n zero bytes.
func (rec *connRec) zeros(n int64) *zeroBody {
	rec.zero.remaining = n
	return &rec.zero
}
