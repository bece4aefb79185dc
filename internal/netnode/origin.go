package netnode

import (
	"fmt"
	"io"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"eacache/internal/cache"
	"eacache/internal/hproto"
)

// OriginServer is an hproto origin that serves any URL with a body of the
// hinted size (or 4KB), standing in for the web servers behind the group.
type OriginServer struct {
	ln     net.Listener
	logger *slog.Logger
	wg     sync.WaitGroup
	closed chan struct{}

	fetches atomic.Int64
}

// NewOriginServer starts an origin on addr ("127.0.0.1:0" for tests).
func NewOriginServer(addr string, logger *slog.Logger) (*OriginServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netnode: origin listen %q: %w", addr, err)
	}
	o := &OriginServer{ln: ln, logger: logger, closed: make(chan struct{})}
	o.wg.Add(1)
	go o.acceptLoop()
	return o, nil
}

// Addr returns the origin's TCP address.
func (o *OriginServer) Addr() string { return o.ln.Addr().String() }

// Fetches returns how many documents the origin served — the traffic the
// cache group failed to absorb.
func (o *OriginServer) Fetches() int64 { return o.fetches.Load() }

// Close stops the origin.
func (o *OriginServer) Close() error {
	select {
	case <-o.closed:
		return nil
	default:
	}
	close(o.closed)
	err := o.ln.Close()
	o.wg.Wait()
	return err
}

func (o *OriginServer) acceptLoop() {
	defer o.wg.Done()
	for {
		conn, err := o.ln.Accept()
		if err != nil {
			select {
			case <-o.closed:
				return
			default:
			}
			if o.logger != nil {
				o.logger.Warn("origin accept failed", "err", err)
			}
			continue
		}
		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.serveConn(conn)
		}()
	}
}

func (o *OriginServer) serveConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	rec := getRec(conn)
	defer putRec(rec)
	req, err := hproto.ReadRequest(rec.br)
	if err != nil {
		return
	}
	size := req.SizeHint
	if size <= 0 {
		size = 4096
	}
	o.fetches.Add(1)
	_ = hproto.WriteResponse(conn, hproto.Response{
		Status:        hproto.StatusOK,
		ResponderAge:  cache.NoContention, // origins have no cache contention
		ContentLength: size,
		Source:        hproto.SourceOrigin,
	}, rec.zeros(size))
}

// zeroBufPool holds pre-zeroed body chunks. Bodies are synthetic zeros in
// this reproduction, so writers send straight from the pooled chunk and
// never dirty it.
var zeroBufPool = sync.Pool{New: func() any {
	b := make([]byte, 32*1024)
	return &b
}}

// zeroBody streams its remaining count of zero bytes; cached bodies are
// synthetic in this reproduction (the simulator tracks sizes, not
// payloads). It implements io.WriterTo, so hproto.WriteResponse streams it
// from a pooled chunk instead of allocating a copy buffer per response.
// Every one in use is a connRec's (connRec.zeros).
type zeroBody struct{ remaining int64 }

func (z *zeroBody) Read(p []byte) (int, error) {
	if z.remaining <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > z.remaining {
		p = p[:z.remaining]
	}
	clear(p)
	z.remaining -= int64(len(p))
	return len(p), nil
}

func (z *zeroBody) WriteTo(w io.Writer) (int64, error) {
	bp := zeroBufPool.Get().(*[]byte)
	defer zeroBufPool.Put(bp)
	buf := *bp
	var written int64
	for z.remaining > 0 {
		chunk := int64(len(buf))
		if chunk > z.remaining {
			chunk = z.remaining
		}
		nn, err := w.Write(buf[:chunk])
		written += int64(nn)
		z.remaining -= int64(nn)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
