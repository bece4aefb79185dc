package icp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"unsafe"
)

// Handler answers ICP queries. Implementations must be safe for concurrent
// use.
type Handler interface {
	// HandleQuery reports the reply opcode for url: OpHit when the
	// document is cached, OpMiss (or OpMissNoFetch / OpDenied) otherwise.
	//
	// url is a view of the server's read buffer, valid only for the
	// duration of the call: the next datagram overwrites it. A handler
	// that keeps the URL must copy it (strings.Clone).
	HandleQuery(url string) Opcode
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(url string) Opcode

// HandleQuery implements Handler.
func (f HandlerFunc) HandleQuery(url string) Opcode { return f(url) }

// Server answers ICP queries on a UDP socket.
type Server struct {
	conn    *net.UDPConn
	handler Handler
	logger  *log.Logger

	wg     sync.WaitGroup
	closed chan struct{}
}

// NewServer starts an ICP responder listening on addr (e.g. "127.0.0.1:0").
// Close must be called to release the socket and stop the service goroutine.
func NewServer(addr string, handler Handler, logger *log.Logger) (*Server, error) {
	if handler == nil {
		return nil, errors.New("icp: nil handler")
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("icp: resolve %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("icp: listen %q: %w", addr, err)
	}
	s := &Server{
		conn:    conn,
		handler: handler,
		logger:  logger,
		closed:  make(chan struct{}),
	}
	s.wg.Add(1)
	go s.serve()
	return s, nil
}

// Addr returns the bound UDP address.
func (s *Server) Addr() *net.UDPAddr {
	addr, ok := s.conn.LocalAddr().(*net.UDPAddr)
	if !ok {
		return nil
	}
	return addr
}

// Close stops the server and waits for its goroutine to exit.
func (s *Server) Close() error {
	select {
	case <-s.closed:
		return nil
	default:
	}
	close(s.closed)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

func (s *Server) serve() {
	defer s.wg.Done()
	// One read buffer and one reply buffer for the server's lifetime, and
	// netip source addresses: answering a query allocates nothing. The
	// reply's URL is still a view of buf until AppendTo copies it into out,
	// which happens before the next read.
	buf := make([]byte, maxLen)
	var out []byte
	for {
		n, peer, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			s.logf("icp: read: %v", err)
			continue
		}
		reply, ok := s.handle(buf[:n])
		if !ok {
			continue
		}
		if out, err = reply.AppendTo(out[:0]); err != nil {
			s.logf("icp: marshal reply: %v", err)
			continue
		}
		if _, err := s.conn.WriteToUDPAddrPort(out, peer); err != nil {
			s.logf("icp: write to %s: %v", peer, err)
		}
	}
}

func (s *Server) handle(datagram []byte) (Message, bool) {
	m, url, err := parse(datagram)
	if err != nil {
		// RFC 2186: reply ICP_OP_ERR when the query is unintelligible
		// but a request number can be recovered; otherwise drop. The
		// number sits at a fixed offset whatever else is wrong with the
		// header.
		if len(datagram) >= headerLen {
			return Message{Op: OpErr, Version: Version2, ReqNum: binary.BigEndian.Uint32(datagram[4:8])}, true
		}
		return Message{}, false
	}
	// The URL as a string without a copy, a view of datagram: Handler says
	// how long it lives.
	m.URL = unsafe.String(unsafe.SliceData(url), len(url))
	switch m.Op {
	case OpQuery:
		return Reply(m, s.handler.HandleQuery(m.URL)), true
	case OpSEcho:
		// Source echo: bounce the message back unchanged bar opcode.
		return Reply(m, OpSEcho), true
	default:
		// Replies and unknown opcodes are not ours to answer.
		return Message{}, false
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}
