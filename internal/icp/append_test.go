package icp

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"net/netip"
	"strings"
	"testing"
	"time"

	"eacache/internal/race"
)

// legacyMarshal is Marshal as it stood before AppendTo replaced it: one
// exact-size buffer filled by offset. Kept as the golden reference.
func legacyMarshal(m Message) ([]byte, error) {
	if strings.IndexByte(m.URL, 0) >= 0 {
		return nil, fmt.Errorf("%w: URL contains NUL", ErrBadPayload)
	}
	payload := len(m.URL) + 1
	if m.Op == OpQuery {
		payload += queryPrefix
	}
	total := headerLen + payload
	if total > maxLen-1 {
		return nil, ErrURLTooLong
	}
	buf := make([]byte, total)
	buf[0] = byte(m.Op)
	version := m.Version
	if version == 0 {
		version = Version2
	}
	buf[1] = version
	binary.BigEndian.PutUint16(buf[2:4], uint16(total))
	binary.BigEndian.PutUint32(buf[4:8], m.ReqNum)
	binary.BigEndian.PutUint32(buf[8:12], m.Options)
	binary.BigEndian.PutUint32(buf[12:16], m.OptionData)
	binary.BigEndian.PutUint32(buf[16:20], m.Sender)
	p := buf[headerLen:]
	if m.Op == OpQuery {
		binary.BigEndian.PutUint32(p[0:4], m.Requester)
		p = p[4:]
	}
	copy(p, m.URL)
	return buf, nil
}

// TestMarshalGolden: byte-for-byte, Marshal and AppendTo emit what the
// parent's Marshal did, for every opcode, hop stamp and URL shape — and
// AppendTo leaves what was already in dst alone, even when dst's spare
// capacity holds stale bytes where the trailing NUL must land.
func TestMarshalGolden(t *testing.T) {
	urls := []string{"", "http://a/", "http://long.example.edu/" + strings.Repeat("p", 300),
		strings.Repeat("u", maxLen-headerLen-queryPrefix-2), strings.Repeat("u", maxLen), "nul\x00inside"}
	ops := []Opcode{OpInvalid, OpQuery, OpHit, OpMiss, OpErr, OpSEcho, OpDEcho, OpMissNoFetch, OpDenied, 99}
	for _, op := range ops {
		for _, url := range urls {
			for _, hop := range []int{-1, 0, 7, 255} {
				m := Message{Op: op, ReqNum: 0x01020304, Options: FlagSrcRTT, OptionData: 0xaabbcc00,
					Sender: 0x0a000001, Requester: 0x0a000002, URL: url}
				m.SetHop(hop)
				want, werr := legacyMarshal(m)
				got, err := m.Marshal()
				if (err == nil) != (werr == nil) || !bytes.Equal(got, want) {
					t.Fatalf("Marshal(%v, %d-byte URL, hop %d) = %x, %v; parent's: %x, %v", op, len(url), hop, got, err, want, werr)
				}
				dirty := bytes.Repeat([]byte{0xff}, len(want)+8)
				got, err = m.AppendTo(dirty[:3])
				if (err == nil) != (werr == nil) || !bytes.Equal(got[:3], dirty[:3]) || (err == nil && !bytes.Equal(got[3:], want)) {
					t.Fatalf("AppendTo(%v, %d-byte URL, hop %d) onto a dirty prefix diverged", op, len(url), hop)
				}
			}
		}
	}
}

func TestAppendToAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	m := Query(7, "http://host.example.edu/some/doc.html")
	m.SetHop(2)
	buf := make([]byte, 0, 128)
	if got := testing.AllocsPerRun(200, func() { buf, _ = m.AppendTo(buf[:0]) }); got != 0 {
		t.Fatalf("AppendTo into a sized buffer: %.1f allocs per call", got)
	}
}

// TestNeighbourAt: a reply's netip source maps back to the caller's own
// neighbour whether either side is in IPv4 or IPv4-mapped form; a
// neighbour already heard, like a stranger, maps to none.
func TestNeighbourAt(t *testing.T) {
	v4 := &net.UDPAddr{IP: net.IP{127, 0, 0, 1}, Port: 4000}
	mapped := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4001} // 16-byte form
	v6 := &net.UDPAddr{IP: net.ParseIP("::1"), Port: 4002}
	neighbours := []*net.UDPAddr{v4, mapped, v6, v4}
	heard := make([]bool, len(neighbours))
	for _, tt := range []struct {
		src  string
		want int
	}{
		{"127.0.0.1:4000", 0},
		{"[::ffff:127.0.0.1]:4000", 0},
		{"127.0.0.1:4001", 1},
		{"[::ffff:127.0.0.1]:4001", 1},
		{"[::1]:4002", 2},
		{"127.0.0.1:4999", -1},
	} {
		if got := unheard(neighbours, heard, netip.MustParseAddrPort(tt.src)); got != tt.want {
			t.Errorf("unheard(%s) = %d, want %d", tt.src, got, tt.want)
		}
	}
	// A neighbour listed twice is matched once per listing, then no more.
	heard[0] = true
	if got := unheard(neighbours, heard, netip.MustParseAddrPort("127.0.0.1:4000")); got != 3 {
		t.Errorf("second reply from a twice-listed neighbour = %d, want 3", got)
	}
	heard[3] = true
	if got := unheard(neighbours, heard, netip.MustParseAddrPort("127.0.0.1:4000")); got != -1 {
		t.Errorf("third reply from a twice-listed neighbour = %d, want -1", got)
	}
}

// TestQueryHandsBackCallersAddresses: over a real socket, every address
// in the Result is the caller's own pointer — nothing is allocated per
// reply — including for a neighbour listed in IPv4-mapped form.
func TestQueryHandsBackCallersAddresses(t *testing.T) {
	hit, miss := startServer(t, "http://x/"), startServer(t)
	hitAddr := &net.UDPAddr{IP: hit.Addr().IP.To16(), Port: hit.Addr().Port}
	missAddr := miss.Addr()
	c := NewClient()
	defer c.Close()
	res, err := c.Query([]*net.UDPAddr{missAddr, hitAddr}, "http://x/", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || len(res.Responders) != 1 || res.Responders[0] != hitAddr {
		t.Fatalf("res = %+v, want a hit from the caller's own %p", res, hitAddr)
	}
	for _, a := range res.Answered {
		if a != hitAddr && a != missAddr {
			t.Fatalf("Answered holds %v (%p), not one of the caller's addresses", a, a)
		}
	}
}

// TestQueryOverWrappedSocket: a socket that is not a plain *net.UDPConn
// (the fault injector's wrapper) takes the net.Addr read path, and still
// answers with the caller's own addresses; closing it ends the reader.
func TestQueryOverWrappedSocket(t *testing.T) {
	hit := startServer(t, "http://x/")
	c := NewClient()
	c.Listen = func() (net.PacketConn, error) {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		return struct{ net.PacketConn }{conn}, err
	}
	addr := hit.Addr()
	res, err := c.Query([]*net.UDPAddr{addr}, "http://x/", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit || len(res.Responders) != 1 || res.Responders[0] != addr || len(res.Answered) != 1 || res.Answered[0] != addr {
		t.Fatalf("res = %+v, want one hit from the caller's own %p", res, addr)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}
