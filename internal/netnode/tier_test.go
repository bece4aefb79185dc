package netnode

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/frame"
	"eacache/internal/metrics"
	"eacache/internal/persist"
)

// startTieredNode starts a node with a small memory tier backed by a blob
// disk tier, journaling into dataDir. DiskDemote is "always" so every
// memory victim spills deterministically. The caller closes it; no
// t.Cleanup, because these tests restart nodes on the same dirs.
func startTieredNode(t *testing.T, id, dataDir, diskDir, origin string, memCap, diskCap int64) *Node {
	t.Helper()
	n, err := New(Config{
		ID:               id,
		ICPAddr:          "127.0.0.1:0",
		HTTPAddr:         "127.0.0.1:0",
		Store:            newStore(t, memCap),
		Scheme:           core.AdHoc{},
		OriginAddr:       origin,
		ICPTimeout:       500 * time.Millisecond,
		DataDir:          dataDir,
		SnapshotInterval: time.Hour,
		DiskDir:          diskDir,
		DiskCapacity:     diskCap,
		DiskDemote:       "always",
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTierConfigValidation(t *testing.T) {
	origin := startOrigin(t)
	base := Config{
		ICPAddr:    "127.0.0.1:0",
		HTTPAddr:   "127.0.0.1:0",
		Store:      newStore(t, 1000),
		Scheme:     core.AdHoc{},
		OriginAddr: origin.Addr(),
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"capacity without dir", func(c *Config) { c.DiskCapacity = 1 << 20 }},
		{"dir without capacity", func(c *Config) { c.DiskDir = t.TempDir() }},
		{"negative capacity", func(c *Config) { c.DiskDir = t.TempDir(); c.DiskCapacity = -1 }},
		{"demote without dir", func(c *Config) { c.DiskDemote = "always" }},
		{"unknown demote policy", func(c *Config) {
			c.DiskDir = t.TempDir()
			c.DiskCapacity = 1 << 20
			c.DiskDemote = "sometimes"
		}},
	}
	for _, tc := range cases {
		cfg := base
		tc.mutate(&cfg)
		if n, err := New(cfg); err == nil {
			_ = n.Close()
			t.Fatalf("%s: accepted", tc.name)
		}
	}
}

// TestTierPromoteOverWire drives more documents through a node than its
// memory tier holds, so victims demote to disk, then re-requests a
// demoted document: the disk hit must re-promote and serve locally
// without touching the origin.
func TestTierPromoteOverWire(t *testing.T) {
	origin := startOrigin(t)
	n := startTieredNode(t, "tp0", t.TempDir(), t.TempDir(), origin.Addr(), 4000, 1<<20)
	defer func() { _ = n.Close() }()

	urls := make([]string, 8)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://tier.example.edu/doc%d", i)
		if _, err := n.Request(urls[i], 1000); err != nil {
			t.Fatal(err)
		}
	}
	if got := n.store.TierCounters().Demotions; got < 4 {
		t.Fatalf("demotions = %d, want >= 4", got)
	}
	if n.blobStore.Len() == 0 {
		t.Fatal("no documents on disk after overflow")
	}
	// The first document is the coldest: it must be disk-resident now.
	if n.store.Contains(urls[0]) != true {
		t.Fatalf("%s not resident in either tier", urls[0])
	}
	fetches := origin.Fetches()
	res, err := n.Request(urls[0], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.LocalHit {
		t.Fatalf("disk-resident request = %+v, want local hit", res)
	}
	if origin.Fetches() != fetches {
		t.Fatalf("disk hit refetched from origin: %d -> %d", fetches, origin.Fetches())
	}
	if got := n.store.TierCounters().Promotions; got == 0 {
		t.Fatal("disk hit did not count a promotion")
	}
	if got := n.store.TierCounters().ChecksumFailures; got != 0 {
		t.Fatalf("checksum failures = %d", got)
	}
}

// TestTierCloseFlushesDemotions is the drain/close-ordering check: a
// graceful Close must flush in-flight tier demotions (Quiesce) before the
// journal's final rotate, so every document the restart snapshot leaves
// out of memory is one the blob index recovers.
func TestTierCloseFlushesDemotions(t *testing.T) {
	origin := startOrigin(t)
	dataDir, diskDir := t.TempDir(), t.TempDir()

	n1 := startTieredNode(t, "tc0", dataDir, diskDir, origin.Addr(), 4000, 1<<20)
	urls := make([]string, 16)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://tierclose.example.edu/doc%d", i)
		if _, err := n1.Request(urls[i], 1000); err != nil {
			t.Fatal(err)
		}
	}
	diskLen := n1.blobStore.Len()
	memLen := n1.Len() - diskLen
	if diskLen == 0 {
		t.Fatal("workload produced no demotions")
	}
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}

	n2 := startTieredNode(t, "tc0", dataDir, diskDir, origin.Addr(), 4000, 1<<20)
	defer func() { _ = n2.Close() }()
	rep, ok := n2.Recovery()
	if !ok || !rep.SnapshotLoaded {
		t.Fatalf("recovery = %+v, ok=%v; want snapshot-led", rep, ok)
	}
	if rep.Disk.Entries != diskLen || rep.Disk.LostBlobs != 0 || rep.DiskTrimmed != 0 {
		t.Fatalf("disk recovery = %d entries / %d lost / %d trimmed, want %d / 0 / 0",
			rep.Disk.Entries, rep.Disk.LostBlobs, rep.DiskTrimmed, diskLen)
	}
	if got := n2.blobStore.Len(); got != diskLen || n2.Len()-got != memLen {
		t.Fatalf("restored occupancy = %d mem / %d disk, want %d / %d",
			n2.Len()-got, got, memLen, diskLen)
	}
	fetches := origin.Fetches()
	for _, u := range urls {
		if !n2.Contains(u) {
			t.Fatalf("restart lost %s", u)
		}
	}
	res, err := n2.Request(urls[0], 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.LocalHit {
		t.Fatalf("post-restart disk request = %+v", res)
	}
	if origin.Fetches() != fetches {
		t.Fatal("warm tier restart refetched from origin")
	}
}

// TestTierKill9Recovery is the tentpole end-to-end check: a node holds
// over 10x its memory capacity on disk, dies without any checkpoint
// (kill -9: the journal and the blob index are all that survive), and a
// successor on the same directories recovers every document with every
// blob checksum intact.
func TestTierKill9Recovery(t *testing.T) {
	origin := startOrigin(t)
	dataDir, diskDir := t.TempDir(), t.TempDir()
	const memCap, docSize, docs = 4000, 1000, 64

	n1 := startTieredNode(t, "tk0", dataDir, diskDir, origin.Addr(), memCap, 1<<20)
	urls := make([]string, docs)
	for i := range urls {
		urls[i] = fmt.Sprintf("http://tierkill.example.edu/doc%d", i)
		if _, err := n1.Request(urls[i], docSize); err != nil {
			t.Fatal(err)
		}
	}
	diskLen := n1.blobStore.Len()
	if used := n1.blobStore.Used(); used < 10*memCap {
		t.Fatalf("disk tier holds %d bytes, want >= 10x memory capacity (%d)", used, 10*memCap)
	}
	// Simulated kill -9: tear down the sockets so the ports are free, but
	// skip every flush a graceful shutdown would run — no Quiesce, no
	// final checkpoint, no blob-index fsync. n1 is deliberately never
	// Closed (see TestKilledNodeRecoversFromJournal).
	_ = n1.icpServer.Close()
	_ = n1.httpLn.Close()

	n2 := startTieredNode(t, "tk0", dataDir, diskDir, origin.Addr(), memCap, 1<<20)
	defer func() { _ = n2.Close() }()
	rep, ok := n2.Recovery()
	if !ok || rep.SnapshotLoaded || rep.JournalRecords == 0 {
		t.Fatalf("recovery = %+v, ok=%v; want journal-only", rep, ok)
	}
	if rep.Disk.LostBlobs != 0 || rep.DiskTrimmed != 0 {
		t.Fatalf("kill -9 lost %d disk residents, trimmed %d", rep.Disk.LostBlobs, rep.DiskTrimmed)
	}
	if got := n2.blobStore.Len(); got != diskLen {
		t.Fatalf("recovered disk tier = %d documents, want %d", got, diskLen)
	}
	if used := n2.blobStore.Used(); used < 10*memCap {
		t.Fatalf("recovered disk tier holds %d bytes, want >= 10x memory capacity", used)
	}
	// Every blob must read back byte-for-byte against its checksum.
	vrep := n2.blobStore.VerifyAll()
	if vrep.Failed != 0 {
		t.Fatalf("post-crash verification failed %d blobs: %v", vrep.Failed, vrep.FailedURLs)
	}
	fetches := origin.Fetches()
	for _, u := range urls {
		if !n2.Contains(u) {
			t.Fatalf("kill -9 restart lost %s", u)
		}
	}
	// Serve one cold (disk-resident) and one hot document; both local.
	for _, u := range []string{urls[0], urls[docs-1]} {
		res, err := n2.Request(u, docSize)
		if err != nil {
			t.Fatal(err)
		}
		if res.Outcome != metrics.LocalHit {
			t.Fatalf("post-crash request %s = %+v", u, res)
		}
	}
	if origin.Fetches() != fetches {
		t.Fatal("post-crash restart refetched from origin")
	}
}

// TestTierParentFormatDataDir starts a node over a data directory the
// parent commit (b9c72ce) could have left — an EACSNAP2 snapshot (disk
// section and all) and a journal in which the first demotion is the
// retired frame carrying the entry's metadata and checksum. Nothing is
// converted and nothing is fatal: the snapshot is rejected by its magic,
// replay keeps the frames before the old demote and stops there as damage,
// and the node serves what that left it.
func TestTierParentFormatDataDir(t *testing.T) {
	le := binary.LittleEndian
	at := time.Unix(1_700_000_000, 0)
	kept, past := "http://parent.example.edu/kept", "http://parent.example.edu/past"

	// EACSNAP2: today's body, then the disk section (here empty), then the CRC.
	v3 := persist.EncodeSnapshot(persist.State{Gen: 0, Entries: []persist.EntryState{
		{URL: "http://parent.example.edu/snap", Size: 500, EnteredAt: at, LastHit: at, Hits: 1}}})
	body := le.AppendUint32(v3[8:len(v3)-4:len(v3)-4], 0)
	snap := le.AppendUint32(append([]byte("EACSNAP2"), body...), frame.Checksum(body))

	// The parent's demote frame: kind 6 over url, at, age, size, expires,
	// enteredAt, lastHit, hits and the 32-byte checksum, CRC intact.
	body = le.AppendUint16([]byte{6}, uint16(len(kept))) // what the CRC covers: kind, then the payload
	body = append(append(body, kept...), make([]byte, 7*8+32)...)
	demote := append(le.AppendUint32(nil, uint32(len(body)-1)), body...)
	demote = le.AppendUint32(demote, frame.Checksum(body))

	var journal []byte
	for _, part := range []any{
		cache.Event{Kind: cache.EventInsert, Doc: cache.Document{URL: kept, Size: 1000}, At: at},
		demote,
		cache.Event{Kind: cache.EventInsert, Doc: cache.Document{URL: past, Size: 1000}, At: at.Add(time.Second)},
	} {
		frame, ok := part.([]byte)
		if !ok {
			var err error
			if frame, err = persist.MarshalEvent(part.(cache.Event)); err != nil {
				t.Fatal(err)
			}
		}
		journal = append(journal, frame...)
	}
	dataDir := t.TempDir()
	for name, raw := range map[string][]byte{"snapshot.dat": snap, "journal.0.wal": journal} {
		if err := os.WriteFile(filepath.Join(dataDir, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	origin := startOrigin(t)
	n := startTieredNode(t, "tp1", dataDir, t.TempDir(), origin.Addr(), 4000, 1<<20)
	defer func() { _ = n.Close() }()
	rep, ok := n.Recovery()
	if !ok || rep.SnapshotLoaded || !strings.Contains(rep.Discarded, "snapshot rejected") {
		t.Fatalf("recovery = %+v, ok=%v; want the EACSNAP2 snapshot rejected", rep, ok)
	}
	if rep.JournalRecords != 1 || rep.DiscardedBytes != int64(len(journal))-rep.JournalBytes || !strings.Contains(rep.Discarded, "journal gen 0: frame at offset") || !strings.Contains(rep.Discarded, "trailing bytes") {
		t.Fatalf("recovery = %+v; want replay to stop at the old demote frame, one record in", rep)
	}
	if !n.Contains(kept) || n.Contains(past) || n.Len() != 1 {
		t.Fatalf("node holds %d documents (kept %v, past the damage %v), want only the one before it", n.Len(), n.Contains(kept), n.Contains(past))
	}
	if res, err := n.Request(kept, 1000); err != nil || res.Outcome != metrics.LocalHit {
		t.Fatalf("request after a parent-format start = %+v, %v", res, err)
	}
}

// TestTierRecoveryReportsDiskTier: the blob tier's own recovery reaches
// Node.Recovery. A node with a disk directory and no data directory
// reports the index it replayed (it used to report nothing), and a blob
// whose URL the journal restores into memory is counted as trimmed.
func TestTierRecoveryReportsDiskTier(t *testing.T) {
	origin := startOrigin(t)
	diskOnly := func(diskDir string) *Node {
		n, err := New(Config{
			ID: "tr0", ICPAddr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0",
			Store: newStore(t, 4000), Scheme: core.AdHoc{}, OriginAddr: origin.Addr(),
			DiskDir: diskDir, DiskCapacity: 1 << 20, DiskDemote: "always",
		})
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	diskDir := t.TempDir()
	n1 := diskOnly(diskDir)
	if rep, ok := n1.Recovery(); !ok || rep.Disk.Entries != 0 || rep.JournalRecords != 0 {
		t.Fatalf("first start: recovery = %+v, ok=%v; want an empty disk tier reported", rep, ok)
	}
	for i := 0; i < 16; i++ {
		if _, err := n1.Request(fmt.Sprintf("http://tierrep.example.edu/doc%d", i), 1000); err != nil {
			t.Fatal(err)
		}
	}
	diskLen, diskUsed := n1.blobStore.Len(), n1.blobStore.Used()
	if err := n1.Close(); err != nil {
		t.Fatal(err)
	}
	n2 := diskOnly(diskDir)
	rep, ok := n2.Recovery()
	if !ok || diskLen == 0 || rep.Disk.Entries != diskLen || rep.Disk.Bytes != diskUsed || rep.Disk.LostBlobs != 0 || rep.DiskTrimmed != 0 {
		t.Fatalf("restart: recovery = %+v, ok=%v; want the %d documents (%d bytes) the index holds", rep, ok, diskLen, diskUsed)
	}
	if n2.Len() != diskLen {
		t.Fatalf("restart holds %d documents, want the %d on disk", n2.Len(), diskLen)
	}
	url := n2.blobStore.URLs()[0]
	_ = n2.Close()

	// One of those URLs, journaled as a memory resident: the blob goes.
	frame, err := persist.MarshalEvent(cache.Event{Kind: cache.EventInsert, Doc: cache.Document{URL: url, Size: 1000}, At: time.Now()})
	if err != nil {
		t.Fatal(err)
	}
	dataDir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dataDir, "journal.0.wal"), frame, 0o644); err != nil {
		t.Fatal(err)
	}
	n3 := startTieredNode(t, "tr0", dataDir, diskDir, origin.Addr(), 4000, 1<<20)
	defer func() { _ = n3.Close() }()
	rep, _ = n3.Recovery()
	if rep.Disk.Entries != diskLen || rep.DiskTrimmed != 1 || rep.Restored.Entries != 1 || n3.blobStore.Len() != diskLen-1 {
		t.Fatalf("recovery = %+v with %d blobs left; want %d entries, one trimmed", rep, n3.blobStore.Len(), diskLen)
	}
	if n3.blobStore.Contains(url) || !n3.Contains(url) || n3.Len() != diskLen {
		t.Fatalf("%s: on disk %v, resident %v, %d documents; want the memory copy alone among %d", url, n3.blobStore.Contains(url), n3.Contains(url), n3.Len(), diskLen)
	}
}
