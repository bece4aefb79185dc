package frame

import (
	"bytes"
	"errors"
	"testing"
	"time"
)

var errTest = errors.New("test: corrupt")

// TestReplayKeepsTheVerifiablePrefix frames three records, then cuts the
// log at every offset and flips every bit: replay must hand back exactly
// the whole frames before the damage, say where they end, and wrap the
// caller's sentinel.
func TestReplayKeepsTheVerifiablePrefix(t *testing.T) {
	var log []byte
	var ends []int
	for i, p := range [][]byte{nil, []byte("a"), bytes.Repeat([]byte{7}, 300)} {
		var start int
		log, start = Begin(log, byte(i+1))
		log = End(append(log, p...), start)
		if got := len(log) - start; got != Overhead+len(p) {
			t.Fatalf("frame %d is %d bytes, want %d", i, got, Overhead+len(p))
		}
		ends = append(ends, len(log))
	}
	replay := func(data []byte) (kinds []byte, good int, damage error) {
		good, damage = Replay(data, errTest, func(kind byte, payload []byte) error {
			kinds = append(kinds, kind)
			return nil
		})
		return kinds, good, damage
	}
	if kinds, good, damage := replay(log); damage != nil || good != len(log) || !bytes.Equal(kinds, []byte{1, 2, 3}) {
		t.Fatalf("clean log: kinds %v over %d of %d bytes, %v", kinds, good, len(log), damage)
	}
	whole := func(n int) (k int) {
		for k < len(ends) && ends[k] <= n {
			k++
		}
		return k
	}
	for cut := 0; cut < len(log); cut++ {
		kinds, good, damage := replay(log[:cut])
		k := whole(cut)
		if len(kinds) != k || (k > 0 && good != ends[k-1]) || (k == 0 && good != 0) {
			t.Fatalf("cut %d: %d frames over %d bytes, want %d", cut, len(kinds), good, k)
		}
		if onBoundary := good == cut; onBoundary != (damage == nil) || damage != nil && !errors.Is(damage, errTest) {
			t.Fatalf("cut %d: damage %v", cut, damage)
		}
	}
	for bit := 0; bit < 8*len(log); bit++ {
		bad := bytes.Clone(log)
		bad[bit/8] ^= 1 << (bit % 8)
		kinds, good, damage := replay(bad)
		if k := whole(bit / 8); len(kinds) != k || !errors.Is(damage, errTest) || good > bit/8 {
			t.Fatalf("bit %d flipped: %d frames over %d bytes, %v", bit, len(kinds), good, damage)
		}
	}
}

// TestReplayStopsAtADecodeError: the payload codec's refusal ends replay
// at its frame and comes back wrapped as it was returned.
func TestReplayStopsAtADecodeError(t *testing.T) {
	refused := errors.New("refused")
	var log []byte
	for kind := byte(1); kind <= 3; kind++ {
		var start int
		log, start = Begin(log, kind)
		log = End(log, start)
	}
	n := 0
	good, damage := Replay(log, errTest, func(kind byte, _ []byte) error {
		if kind == 2 {
			return refused
		}
		n++
		return nil
	})
	if n != 1 || good != Overhead || !errors.Is(damage, refused) || errors.Is(damage, errTest) {
		t.Fatalf("decoded %d, good %d, damage %v", n, good, damage)
	}
}

func TestTimeRoundTrip(t *testing.T) {
	for _, at := range []time.Time{{}, time.Unix(1_700_000_000, 123)} {
		if got := NanoToTime(TimeToNano(at)); !got.Equal(at) || got.IsZero() != at.IsZero() {
			t.Fatalf("%v round-trips to %v", at, got)
		}
	}
}
