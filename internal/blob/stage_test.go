package blob

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"eacache/internal/cache"
	"eacache/internal/race"
)

// stagedFiles lists what is left in the store's staging area.
func stagedFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestStageBodyChecksLength: a body must be exactly as long as the entry
// says. A longer one used to be cut at size and indexed under the hash of
// its prefix; a shorter one and a failing source were already refused. No
// failure may leave its staged file behind.
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
			sum, staged, err := s.stageBody(tc.src, size)
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				got, rerr := os.ReadFile(staged)
				if rerr != nil || !bytes.Equal(got, data[:size]) || sum != sha256.Sum256(data[:size]) {
					t.Fatalf("staged file or sum differs from the body (%v)", rerr)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
			if tc.name == "errors mid-way" && !errors.Is(err, boom) {
				t.Fatalf("source error not wrapped: %v", err)
			}
			if staged != "" || len(stagedFiles(t, dir)) != 0 {
				t.Fatalf("failure left %q staged, tmp holds %v", staged, stagedFiles(t, dir))
			}
		})
	}

	// Through Admit a refused body changes nothing.
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	defer s.Close()
	admit(t, s, "http://stage/kept", 100, 0)
	_, evicted, err := s.Admit(cache.DiskEntry{Doc: cache.Document{URL: "http://stage/long", Size: size}}, bytes.NewReader(data), t0())
	if err == nil || len(evicted) != 0 || s.Contains("http://stage/long") || s.Used() != 100 || len(stagedFiles(t, dir)) != 0 {
		t.Fatalf("over-long admit: err %v, evicted %d, used %d, tmp %v", err, len(evicted), s.Used(), stagedFiles(t, dir))
	}
	if _, err := os.Stat(blobPath(dir, sha256.Sum256(data[:size]))); !os.IsNotExist(err) {
		t.Fatalf("the prefix of an over-long body reached blobs/: %v", err)
	}
}

// TestStagedNameCollision: staging names come from a counter, so a file
// already under the next name — left by a crash, or anything else — must
// cost a retry, not the admission; and whatever is in tmp/ when the store
// is next opened is swept.
func TestStagedNameCollision(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	for _, name := range []string{"admit-1", "admit-2"} {
		if err := os.WriteFile(filepath.Join(dir, "tmp", name), []byte("half a body"), 0o600); err != nil {
			t.Fatal(err)
		}
	}
	admit(t, s, "http://tmp/a", 256, 0)
	if got, _, err := readAll(t, s, "http://tmp/a"); err != nil || !bytes.Equal(got, body("http://tmp/a", 256)) {
		t.Fatalf("admission beside leftovers unreadable: %v", err)
	}
	if left := stagedFiles(t, dir); len(left) != 2 {
		t.Fatalf("tmp holds %v, want the two leftovers untouched", left)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openStore(t, dir, 1<<20)
	defer s.Close()
	if left := stagedFiles(t, dir); len(left) != 0 {
		t.Fatalf("leftovers survived Open: %v", left)
	}
	if !s.Contains("http://tmp/a") {
		t.Fatal("entry lost across reopen")
	}
	admit(t, s, "http://tmp/b", 256, 1) // the counter restarts at 1 on a clean tmp/
}

// TestFanoutDirectoryRemade: the store remembers which blobs/<hh>
// directories it made; one removed behind its back is made again.
func TestFanoutDirectoryRemade(t *testing.T) {
	dir := t.TempDir()
	s := openStore(t, dir, 1<<20)
	defer s.Close()
	e := admit(t, s, "http://fan/a", 128, 0)
	s.Remove("http://fan/a")
	if err := os.Remove(filepath.Dir(blobPath(dir, e.Sum))); err != nil {
		t.Fatal(err)
	}
	admit(t, s, "http://fan/a", 128, 1) // same body, same directory
	if _, _, err := readAll(t, s, "http://fan/a"); err != nil {
		t.Fatal(err)
	}
}

// TestStagerNotSharedAcrossReaders: readers verifying resident blobs
// while admissions stage new ones all draw on one pool of hashers. A
// hasher handed to two owners at once mixes two bodies into one digest
// and shows up as ErrChecksum. Readers close twice, which must not return
// the same stager twice.
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
				_, rc, ok := s.Open(url)
				if !ok {
					t.Errorf("%s not resident", url)
					return
				}
				_, err := io.Copy(io.Discard, rc)
				if cerr := rc.Close(); err == nil {
					err = cerr
				}
				rc.Close()
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

// budgetStore is a warm store holding n 8 KB documents with distinct
// bodies, plus the means to admit more without the test allocating.
type budgetStore struct {
	*Store
	urls []string
	data []byte
	src  *bytes.Reader
	now  time.Time
}

func newBudgetStore(t *testing.T, n, spare int) *budgetStore {
	t.Helper()
	dir := t.TempDir()
	b := &budgetStore{Store: openStore(t, dir, 64<<20), data: make([]byte, 8<<10), src: bytes.NewReader(nil), now: t0()}
	t.Cleanup(func() { b.Close() })
	// Warm means every fan-out directory is there: distinct bodies land
	// in all 256 of them.
	for hh := range b.fanout {
		if err := os.MkdirAll(filepath.Join(dir, "blobs", fmt.Sprintf("%02x", hh)), 0o755); err != nil {
			t.Fatal(err)
		}
		b.fanout[hh] = true
	}
	for i := 0; i < n+spare; i++ {
		b.urls = append(b.urls, fmt.Sprintf("http://budget.example.edu/documents/%d", i))
	}
	for i := 0; i < n; i++ {
		b.admit(t, i)
	}
	return b
}

// admit stores document i under a body no other document has, so the
// staged file is renamed into place and not dropped as a duplicate.
func (b *budgetStore) admit(t *testing.T, i int) {
	binary.LittleEndian.PutUint64(b.data, uint64(i))
	b.src.Reset(b.data)
	if _, _, err := b.Admit(cache.DiskEntry{Doc: cache.Document{URL: b.urls[i], Size: int64(len(b.data))}, LastHit: b.now}, b.src, b.now); err != nil {
		t.Fatal(err)
	}
}

// TestAdmitAllocBudget: staging, hashing, placing and indexing an 8 KB
// body. What is left is the entry, the *os.File and the path strings of
// open, rename and the syscalls under them: 11 here, 29 on the parent.
func TestAdmitAllocBudget(t *testing.T) {
	const runs = 200
	b := newBudgetStore(t, 64, runs+1)
	i := 64
	allocBudget(t, "Admit of an 8 KB body", 12, runs, func() {
		b.admit(t, i)
		i++
	})
}

// TestOpenVerifyAllocBudget: Open, drain through the verifying reader,
// Close: 5 here, 9 on the parent.
func TestOpenVerifyAllocBudget(t *testing.T) {
	b := newBudgetStore(t, 64, 0)
	i := 0
	allocBudget(t, "Open + drain + Close", 6, 200, func() {
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

// TestRemoveAllocBudget: del frame, refcount, unlink: 2 here, 7 on the parent.
func TestRemoveAllocBudget(t *testing.T) {
	const runs = 200
	b := newBudgetStore(t, runs+1, 0)
	i := 0
	allocBudget(t, "Remove", 4, runs, func() {
		if _, ok := b.Remove(b.urls[i]); !ok {
			t.Fatal("not resident")
		}
		i++
	})
}

// TestIndexAppendAllocs: an index frame is built in the store's scratch
// slice and written from it (5 allocations on the parent).
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
