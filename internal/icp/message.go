// Package icp implements version 2 of the Internet Cache Protocol
// (RFC 2186), the datagram protocol cooperating proxies use to locate
// documents in each other's caches: a proxy that misses locally sends
// ICP_OP_QUERY to its neighbours and they answer ICP_OP_HIT or ICP_OP_MISS.
//
// The package provides the exact wire format plus a UDP responder and a
// fan-out query client, used by the live network node (internal/netnode).
// The deterministic simulator short-circuits the same exchange in-process
// with identical semantics.
package icp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
)

// Opcode is an ICP message opcode (RFC 2186 §3).
type Opcode uint8

// Opcodes defined by RFC 2186.
const (
	OpInvalid     Opcode = 0
	OpQuery       Opcode = 1
	OpHit         Opcode = 2
	OpMiss        Opcode = 3
	OpErr         Opcode = 4
	OpSEcho       Opcode = 10
	OpDEcho       Opcode = 11
	OpMissNoFetch Opcode = 21
	OpDenied      Opcode = 22
)

// String implements fmt.Stringer.
func (o Opcode) String() string {
	switch o {
	case OpInvalid:
		return "ICP_OP_INVALID"
	case OpQuery:
		return "ICP_OP_QUERY"
	case OpHit:
		return "ICP_OP_HIT"
	case OpMiss:
		return "ICP_OP_MISS"
	case OpErr:
		return "ICP_OP_ERR"
	case OpSEcho:
		return "ICP_OP_SECHO"
	case OpDEcho:
		return "ICP_OP_DECHO"
	case OpMissNoFetch:
		return "ICP_OP_MISS_NOFETCH"
	case OpDenied:
		return "ICP_OP_DENIED"
	default:
		return fmt.Sprintf("ICP_OP_%d", uint8(o))
	}
}

// Version2 is the protocol version this package speaks.
const Version2 = 2

// Option flag bits (RFC 2186 §6).
const (
	FlagHitObj uint32 = 0x80000000
	FlagSrcRTT uint32 = 0x40000000
	// FlagTraceHop is a private-use option bit (outside the RFC-assigned
	// range): when set, the low byte of OptionData carries the sender's
	// forwarding hop depth, so a traced request's ICP fan-out is
	// attributable to its hop in the stitched timeline. Implementations
	// that do not know the bit ignore it, as RFC 2186 §6 prescribes for
	// unrecognised options — the queries stay wire-compatible.
	FlagTraceHop uint32 = 0x20000000
)

const (
	headerLen   = 20
	maxLen      = 1 << 16 // message length field is 16 bits
	queryPrefix = 4       // requester host address in query payload
)

// Errors returned by Parse.
var (
	ErrShortMessage = errors.New("icp: message shorter than header")
	ErrBadLength    = errors.New("icp: length field does not match datagram")
	ErrBadVersion   = errors.New("icp: unsupported version")
	ErrBadPayload   = errors.New("icp: malformed payload")
	ErrURLTooLong   = errors.New("icp: URL does not fit in a message")
)

// Message is one ICP datagram.
type Message struct {
	Op      Opcode
	Version uint8
	// ReqNum matches replies to queries; the requester chooses it.
	ReqNum uint32
	// Options carries the flag bits.
	Options uint32
	// OptionData carries SRC_RTT measurements when FlagSrcRTT is set.
	OptionData uint32
	// Sender is the sender host address field (IPv4, big endian). RFC
	// 2186 allows it to be zero, and modern implementations ignore it.
	Sender uint32
	// Requester is the requester host address carried in the payload of
	// ICP_OP_QUERY messages only.
	Requester uint32
	// URL is the document being located. NUL-terminated on the wire.
	URL string
}

// Query builds an ICP_OP_QUERY for url with the given request number.
func Query(reqNum uint32, url string) Message {
	return Message{Op: OpQuery, Version: Version2, ReqNum: reqNum, URL: url}
}

// SetHop stamps the trace hop depth onto the message (FlagTraceHop +
// OptionData low byte). Depths outside [0,255] are ignored.
func (m *Message) SetHop(hop int) {
	if hop < 0 || hop > 255 {
		return
	}
	m.Options |= FlagTraceHop
	m.OptionData = m.OptionData&^uint32(0xff) | uint32(hop)
}

// Hop returns the trace hop depth carried by the message, or -1 when the
// sender did not stamp one.
func (m Message) Hop() int {
	if m.Options&FlagTraceHop == 0 {
		return -1
	}
	return int(m.OptionData & 0xff)
}

// Reply builds a reply to q with the given opcode, echoing the request
// number and URL as RFC 2186 requires.
func Reply(q Message, op Opcode) Message {
	return Message{Op: op, Version: Version2, ReqNum: q.ReqNum, URL: q.URL}
}

// Marshal encodes the message into the RFC 2186 wire format.
func (m Message) Marshal() ([]byte, error) { return m.AppendTo(nil) }

// AppendTo appends the message's wire format to dst and returns the
// extended slice (dst itself on error); with room in dst it allocates
// nothing, which is how the server and the fan-out client reuse one buffer
// across datagrams.
func (m Message) AppendTo(dst []byte) ([]byte, error) {
	if strings.IndexByte(m.URL, 0) >= 0 {
		return dst, fmt.Errorf("%w: URL contains NUL", ErrBadPayload)
	}
	total := headerLen + len(m.URL) + 1
	if m.Op == OpQuery {
		total += queryPrefix
	}
	if total > maxLen-1 {
		return dst, ErrURLTooLong
	}
	version := m.Version
	if version == 0 {
		version = Version2
	}
	dst = append(slices.Grow(dst, total), byte(m.Op), version)
	dst = binary.BigEndian.AppendUint16(dst, uint16(total))
	dst = binary.BigEndian.AppendUint32(dst, m.ReqNum)
	dst = binary.BigEndian.AppendUint32(dst, m.Options)
	dst = binary.BigEndian.AppendUint32(dst, m.OptionData)
	dst = binary.BigEndian.AppendUint32(dst, m.Sender)
	if m.Op == OpQuery {
		dst = binary.BigEndian.AppendUint32(dst, m.Requester)
	}
	return append(append(dst, m.URL...), 0), nil // NUL-terminated
}

// Parse decodes one datagram.
func Parse(b []byte) (Message, error) {
	m, url, err := parse(b)
	m.URL = string(url)
	return m, err
}

// parse is Parse without materialising the URL: it is returned as a view
// into b, so the client's reply loop can compare it to the query's URL
// and move on without leaving a string behind per datagram.
func parse(b []byte) (Message, []byte, error) {
	if len(b) < headerLen {
		return Message{}, nil, ErrShortMessage
	}
	var m Message
	m.Op = Opcode(b[0])
	m.Version = b[1]
	if m.Version != Version2 {
		return Message{}, nil, fmt.Errorf("%w: %d", ErrBadVersion, m.Version)
	}
	if int(binary.BigEndian.Uint16(b[2:4])) != len(b) {
		return Message{}, nil, ErrBadLength
	}
	m.ReqNum = binary.BigEndian.Uint32(b[4:8])
	m.Options = binary.BigEndian.Uint32(b[8:12])
	m.OptionData = binary.BigEndian.Uint32(b[12:16])
	m.Sender = binary.BigEndian.Uint32(b[16:20])

	p := b[headerLen:]
	if m.Op == OpQuery {
		if len(p) < queryPrefix+1 {
			return Message{}, nil, fmt.Errorf("%w: query payload too short", ErrBadPayload)
		}
		m.Requester = binary.BigEndian.Uint32(p[0:4])
		p = p[4:]
	}
	if len(p) == 0 || p[len(p)-1] != 0 {
		return Message{}, nil, fmt.Errorf("%w: missing URL terminator", ErrBadPayload)
	}
	url := p[:len(p)-1]
	if bytes.IndexByte(url, 0) >= 0 {
		return Message{}, nil, fmt.Errorf("%w: embedded NUL in URL", ErrBadPayload)
	}
	return m, url, nil
}
