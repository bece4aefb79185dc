package blob

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"eacache/internal/cache"
	"eacache/internal/frame"
	"eacache/internal/race"
)

// pinned counts the pins held on the store's segments.
func pinned(s *Store) (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seg := range s.segs {
		n += seg.pins
	}
	return n
}

// TestStageBodyChecksLength: a body must be exactly as long as the entry
// says. A longer one used to be cut at size and indexed under the checksum
// of its prefix; a shorter one and a failing source were already refused. No
// failure may leave its segment pinned or its extent anything but dead.
func TestStageBodyChecksLength(t *testing.T) {
	const size = 70_000 // three trips through the stager's buffer
	data := body("http://stage/len", size+1)
	boom := errors.New("source failed")
	cases := []struct {
		name string
		src  io.Reader
		want string // substring of the error; empty means accepted
	}{
		{"exact", bytes.NewReader(data[:size]), ""},
		{"exact, EOF with the last bytes", iotest.DataErrReader(bytes.NewReader(data[:size])), ""},
		{"exact, one byte per read", iotest.OneByteReader(bytes.NewReader(data[:size])), ""},
		{"short", bytes.NewReader(data[:size-1]), "body is 69999 bytes, want 70000"},
		{"empty", bytes.NewReader(nil), "body is 0 bytes, want 70000"},
		{"long", bytes.NewReader(data), "longer than 70000 bytes"},
		{"errors mid-way", io.MultiReader(bytes.NewReader(data[:size/2]), iotest.ErrReader(boom)), "source failed"},
		{"errors where EOF is due", io.MultiReader(bytes.NewReader(data[:size]), iotest.ErrReader(boom)), "source failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s := openStore(t, dir, 1<<20)
			defer s.Close()
			crc, seg, off, err := s.stageBody(tc.src, size)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				got := make([]byte, size)
				_, rerr := seg.f.ReadAt(got, off)
				if rerr != nil || !bytes.Equal(got, data[:size]) || crc != frame.Checksum(data[:size]) {
					t.Fatalf("staged extent or checksum differs from the body (%v)", rerr)
				}
				if pinned(s) != 1 {
					t.Fatalf("%d pins on a staged extent, want 1", pinned(s))
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
			if tc.name == "errors mid-way" && !errors.Is(err, boom) {
				t.Fatalf("source error not wrapped: %v", err)
			}
			if _, dead := liveBytes(s); seg != nil || pinned(s) != 0 || dead != size {
				t.Fatalf("failure left segment %v, %d pins, %d dead bytes (want none, 0, %d)", seg, pinned(s), dead, size)
			}
		})
	}

	// Through Admit a refused body changes nothing: in particular the
	// prefix of an over-long one is not indexed.
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	defer s.Close()
	admit(t, s, "http://stage/kept", 100, 0)
	_, evicted, err := s.Admit(cache.DiskEntry{Doc: cache.Document{URL: "http://stage/long", Size: size}}, bytes.NewReader(data), t0())
	live, _ := liveBytes(s)
	if err == nil || len(evicted) != 0 || s.Contains("http://stage/long") || s.Used() != 100 || live != 100 || pinned(s) != 0 {
		t.Fatalf("over-long admit: err %v, evicted %d, used %d, live %d, pins %d", err, len(evicted), s.Used(), live, pinned(s))
	}
}

// TestStagerNotSharedAcrossReaders: Verify passes resident blobs through
// the same pool of buffers that admissions stage new ones through. A
// buffer handed to two owners at once mixes two bodies and shows up as
// ErrChecksum, on a read or in VerifyAll. Readers close twice, which must
// not unpin their segment twice.
func TestStagerNotSharedAcrossReaders(t *testing.T) {
	s := openStore(t, t.TempDir(), 8<<20)
	defer s.Close()
	const readers, resident = 8, 16
	for i := 0; i < resident; i++ {
		admit(t, s, fmt.Sprintf("http://pool/r%d", i), int64(3000+i*4099), i)
	}
	stop := make(chan struct{})
	var admitter, wg sync.WaitGroup
	admitter.Add(1)
	go func() {
		defer admitter.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			url := fmt.Sprintf("http://pool/w%d", i%32)
			now := t0().Add(time.Duration(i) * time.Second)
			if _, _, err := s.Admit(cache.DiskEntry{Doc: cache.Document{URL: url, Size: 5000}, LastHit: now},
				bytes.NewReader(body(url, 5000)), now); err != nil {
				t.Errorf("admit %s: %v", url, err)
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 150; i++ {
				url := fmt.Sprintf("http://pool/r%d", (r+i)%resident)
				var err error
				if r%2 == 0 {
					_, _, err = s.Verify(url)
				} else if _, rc, ok := s.Open(url); !ok {
					t.Errorf("%s not resident", url)
					return
				} else {
					_, err = io.Copy(io.Discard, rc)
					if cerr := rc.Close(); err == nil {
						err = cerr
					}
					rc.Close()
				}
				if err != nil {
					t.Errorf("%s: %v", url, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(stop)
	admitter.Wait()
	if n := s.ChecksumFailures(); n != 0 {
		t.Fatalf("%d checksum failures", n)
	}
	if n := pinned(s); n != 0 {
		t.Fatalf("%d pins left with every reader closed", n)
	}
	if v := s.VerifyAll(); v.Failed != 0 {
		t.Fatalf("admissions staged beside the readers do not verify: %+v", v)
	}
}

// allocBudget runs f through testing.AllocsPerRun and fails above limit.
// The detector's instrumentation allocates on its own, so the budgets are
// for plain builds; -short does not skip them.
func allocBudget(t *testing.T, what string, limit float64, runs int, f func()) {
	t.Helper()
	if race.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	got := testing.AllocsPerRun(runs, f)
	t.Logf("%s: %.1f allocations (budget %.0f)", what, got, limit)
	if got > limit {
		t.Fatalf("%s: %.1f allocations, budget %.0f", what, got, limit)
	}
}

// budgetStore is a warm store holding n 8 KB documents, plus the means to
// admit more without the test allocating.
type budgetStore struct {
	*Store
	urls []string
	data []byte
	src  *bytes.Reader
	now  time.Time
}

func newBudgetStore(t *testing.T, n, spare int) *budgetStore {
	t.Helper()
	b := &budgetStore{Store: openStore(t, t.TempDir(), 64<<20), data: make([]byte, 8<<10), src: bytes.NewReader(nil), now: t0()}
	t.Cleanup(func() { b.Close() })
	for i := 0; i < n+spare; i++ {
		b.urls = append(b.urls, fmt.Sprintf("http://budget.example.edu/documents/%d", i))
	}
	for i := 0; i < n; i++ {
		b.admit(t, i)
	}
	return b
}

// admit stores document i.
func (b *budgetStore) admit(t *testing.T, i int) {
	b.src.Reset(b.data)
	if _, _, err := b.Admit(cache.DiskEntry{Doc: cache.Document{URL: b.urls[i], Size: int64(len(b.data))}, LastHit: b.now}, b.src, b.now); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitAllocBudget: reserving, writing, checksumming, committing and
// indexing an 8 KB body into a store whose population holds steady, so
// each admit takes the dentry the removal before it gave back: nothing
// here, 11 with a file per blob. (Making room by eviction instead would
// count the []DiskEviction Admit returns.)
func TestAdmitAllocBudget(t *testing.T) {
	const runs = 200
	b := newBudgetStore(t, 64, runs+1)
	i := 64
	allocBudget(t, "Remove + Admit of an 8 KB body", 0, runs, func() {
		if _, ok := b.Remove(b.urls[i-64]); !ok {
			t.Fatal("not resident")
		}
		b.admit(t, i)
		i++
	})
}

// TestVerifyAllocBudget: the checksum pass a promotion makes drives its
// reader on Verify's own frame through the pooled stager's buffer.
func TestVerifyAllocBudget(t *testing.T) {
	b := newBudgetStore(t, 64, 0)
	i := 0
	allocBudget(t, "Verify", 0, 200, func() {
		if _, ok, err := b.Verify(b.urls[i%64]); !ok || err != nil {
			t.Fatalf("Verify: resident %v, %v", ok, err)
		}
		i++
	})
}

// TestOpenVerifyAllocBudget: Open, drain through the verifying reader,
// Close. What is left is the reader: 1 here, 5 with a file per blob.
func TestOpenVerifyAllocBudget(t *testing.T) {
	b := newBudgetStore(t, 64, 0)
	i := 0
	allocBudget(t, "Open + drain + Close", 1, 200, func() {
		_, rc, ok := b.Open(b.urls[i%64])
		if !ok {
			t.Fatal("not resident")
		}
		if _, err := io.Copy(io.Discard, rc); err != nil {
			t.Fatal(err)
		}
		if err := rc.Close(); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestRemoveAllocBudget: del frame, the extent turning dead:
// nothing here, 2 with a file per blob.
func TestRemoveAllocBudget(t *testing.T) {
	const runs = 200
	b := newBudgetStore(t, runs+1, 0)
	i := 0
	allocBudget(t, "Remove", 0, runs, func() {
		if _, ok := b.Remove(b.urls[i]); !ok {
			t.Fatal("not resident")
		}
		i++
	})
}

// TestIndexAppendAllocs: an index frame is built in the store's scratch
// slice and written from it.
func TestIndexAppendAllocs(t *testing.T) {
	b := newBudgetStore(t, 1, 0)
	e, _ := b.Peek(b.urls[0])
	allocBudget(t, "appendLocked", 0, 200, func() {
		b.mu.Lock()
		err := b.appendLocked(IndexRecord{Entry: e})
		b.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	})
}

// TestRecycledDentriesAreClean: a dropped entry's dentry waits on the free
// stack zeroed — no entry, extent or LRU links — and the next insert takes
// it and starts it as a new one.
func TestRecycledDentriesAreClean(t *testing.T) {
	s := openStore(t, t.TempDir(), 1<<20)
	defer s.Close()
	for i := 0; i < 4; i++ {
		admit(t, s, fmt.Sprintf("http://free/%d", i), 1000, i)
	}
	s.Remove("http://free/1")
	s.Remove("http://free/2")
	s.mu.Lock()
	n := len(s.free)
	for _, d := range s.free {
		if *d != (dentry{}) {
			t.Errorf("dentry on the free stack is not zeroed: %+v", *d)
		}
	}
	top := s.free[n-1]
	s.mu.Unlock()
	if n != 2 {
		t.Fatalf("free stack holds %d dentries, want 2", n)
	}
	e := admit(t, s, "http://free/new", 500, 9)
	path, off := where(t, s, "http://free/new")
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.entries["http://free/new"]
	if d != top || len(s.free) != 1 || s.free[:2][1] != nil {
		t.Fatalf("insert did not pop the top of the free stack (%d left)", len(s.free))
	}
	if d.e != e || segPath(s.dir, d.at.seg) != path || d.at.off != off || d.prev != &s.lru || s.lru.next != d || d.next.prev != d {
		t.Fatalf("recycled dentry carries stale state: %+v", *d)
	}
}

// TestDentryFreeStackIsBounded: one admission that evicts hundreds of
// small entries leaves at most 64 dentries behind.
func TestDentryFreeStackIsBounded(t *testing.T) {
	s := openStore(t, t.TempDir(), 256<<10)
	defer s.Close()
	for i := 0; i < 256; i++ {
		admit(t, s, fmt.Sprintf("http://small/%d", i), 1<<10, i)
	}
	if _, evicted, err := s.Admit(cache.DiskEntry{Doc: cache.Document{URL: "http://huge", Size: 256 << 10}},
		bytes.NewReader(body("http://huge", 256<<10)), t0().Add(time.Hour)); err != nil || len(evicted) != 256 {
		t.Fatalf("evicted %d, err %v; want 256 evictions", len(evicted), err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The stack filled to its bound, then "huge" took one dentry back.
	if len(s.free) != 63 || cap(s.free) > 128 {
		t.Fatalf("free stack len %d cap %d, want len 63", len(s.free), cap(s.free))
	}
}
