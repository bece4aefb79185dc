package netnode

// Background EA-aware migration: when the membership epoch changes under
// hash location, resident copies whose owner moved are handed off to the
// new owner over the fetch protocol's PUT verb; DrainHandoff does the
// same for a departing node's whole store. The mover is deliberately
// conservative about the ≤1-copy invariant: a document is REMOVED from
// the local store before any byte of it travels, so the group never
// holds two copies of anything — at worst it briefly holds zero, which
// the origin repairs on the next request. The expiration age piggybacked
// on each push response is remembered per destination and gates later
// transfers: a copy idle longer than the destination's expiration age
// would be evicted there before its next expected hit, so the transfer
// bytes are not worth spending (the paper's placement economics applied
// to rebalancing).

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"eacache/internal/cache"
	"eacache/internal/chash"
	"eacache/internal/health"
	"eacache/internal/hproto"
	"eacache/internal/resolve"
)

// Per-document migration results (the eac_migration_docs_total labels).
const (
	mrKept = iota
	mrTransferred
	mrSkippedEA
	mrRefused
	mrFailed
	mrCount
)

var migrateResultNames = [mrCount]string{"kept", "transferred", "skipped_ea", "refused", "failed"}

// migrateConcurrency bounds parallel handoff transfers during ring
// rebalances and drain.
const migrateConcurrency = 2

// MigrationReport accounts for one migration pass. Every scanned
// document lands in exactly one bucket:
//
//	Scanned == Kept + Transferred + SkippedEA + Refused + Failed
//
// which the churn gate checks — a doc that silently fell out of the
// accounting would be a doc the mover lost track of.
type MigrationReport struct {
	// Epoch is the membership revision the pass ran against.
	Epoch int64 `json:"epoch"`
	// Reason is "rebalance" (epoch change) or "drain" (DrainHandoff).
	Reason string `json:"reason"`
	// Scanned counts documents actually processed (on an aborted pass,
	// less than the store walk intended).
	Scanned int `json:"scanned"`
	// Kept stayed local: this node still owns them, or they vanished
	// from the store before the mover reached them.
	Kept int `json:"kept"`
	// Transferred were pushed to and stored by their new owner.
	Transferred      int   `json:"transferred"`
	TransferredBytes int64 `json:"transferred_bytes"`
	// SkippedEA were removed locally but not pushed: idle longer than
	// the destination's expiration age, so the transfer would have been
	// wasted bytes (the destination would evict before the next hit).
	SkippedEA int `json:"skipped_ea"`
	// Refused were pushed but declined by the destination (not the owner
	// under its ring view, draining, or no room).
	Refused int `json:"refused"`
	// Failed hit a transport error mid-push; the document stays
	// recoverable from the origin.
	Failed int `json:"failed"`
	// Aborted marks a pass cut short by a newer epoch or node shutdown;
	// the re-kick that bumped the epoch re-runs the walk.
	Aborted    bool    `json:"aborted"`
	DurationMS float64 `json:"duration_ms"`
}

// LastMigration returns the most recent migration pass's report; ok is
// false when none has run.
func (n *Node) LastMigration() (MigrationReport, bool) {
	if r := n.lastMig.Load(); r != nil {
		return *r, true
	}
	return MigrationReport{}, false
}

// kickMigration schedules a migration pass; coalesces with one already
// pending (the pass re-reads the epoch, so one run covers many kicks).
func (n *Node) kickMigration() {
	if n.migrateKick == nil {
		return
	}
	select {
	case n.migrateKick <- struct{}{}:
	default:
	}
}

// migratorLoop runs one rebalance pass per kick until shutdown. Started
// only under hash location — the only mode whose placement is
// structural enough that membership changes move ownership.
func (n *Node) migratorLoop() {
	defer n.wg.Done()
	for {
		select {
		case <-n.closed:
			return
		case <-n.migrateKick:
		}
		rep := n.runRebalance()
		n.lastMig.Store(&rep)
		if rep.Transferred+rep.SkippedEA+rep.Refused+rep.Failed > 0 || rep.Aborted {
			n.warn("migration pass finished", nil,
				"reason", rep.Reason, "epoch", rep.Epoch, "scanned", rep.Scanned,
				"kept", rep.Kept, "transferred", rep.Transferred,
				"bytes", rep.TransferredBytes, "skipped_ea", rep.SkippedEA,
				"refused", rep.Refused, "failed", rep.Failed, "aborted", rep.Aborted)
		}
	}
}

// runRebalance re-resolves every resident document against the current
// locator and hands off the ones this node no longer owns. Aborts (to be
// re-kicked) when the epoch moves underneath it.
func (n *Node) runRebalance() MigrationReport {
	epoch := n.epoch.Load()
	loc := n.hash.Load()
	dest := func(url string) (string, bool) {
		if loc == nil {
			return "", false
		}
		l := loc.Locate(nil, url, n.now())
		if l.Placement == resolve.PlacementAlways || len(l.Candidates) == 0 {
			// Still the (acting) home — or every new owner is dead, in
			// which case the copy is safest where it is.
			return "", false
		}
		return l.Candidates[0].ID, true
	}
	abort := func() bool { return n.epoch.Load() != epoch }
	return n.migrate("rebalance", epoch, dest, abort)
}

// DrainHandoff hands off this node's copies ahead of a planned shutdown
// and returns the accounting. From the first instant the node keeps no
// new copies (it still serves and relays), so the store only shrinks
// while the handoff walks it. Under hash location each document goes to
// its owner on the ring WITHOUT this node — where it will live after the
// departure; under ICP/digest location sole copies are spread
// round-robin across live peers. Safe to call more than once; the
// drained state is permanent for the node's lifetime.
func (n *Node) DrainHandoff() MigrationReport {
	n.drainMu.Lock()
	defer n.drainMu.Unlock()
	n.draining.Store(true)

	peers := n.peerList()
	var dest func(string) (string, bool)
	if n.location == resolve.LocateHash {
		loc := n.drainLocator(peers)
		dest = func(url string) (string, bool) {
			if loc == nil {
				return "", false
			}
			l := loc.Locate(nil, url, n.now())
			if len(l.Candidates) == 0 {
				return "", false
			}
			return l.Candidates[0].ID, true
		}
	} else {
		var alive []string
		for _, p := range peers {
			if n.health.State(p.HTTP) != health.Dead {
				alive = append(alive, p.HTTP)
			}
		}
		var rr atomic.Uint64
		dest = func(string) (string, bool) {
			if len(alive) == 0 {
				return "", false
			}
			return alive[int((rr.Add(1)-1)%uint64(len(alive)))], true
		}
	}
	rep := n.migrate("drain", n.epoch.Load(), dest, nil)
	n.lastMig.Store(&rep)
	n.warn("drain handoff finished", nil,
		"scanned", rep.Scanned, "transferred", rep.Transferred,
		"kept", rep.Kept, "skipped_ea", rep.SkippedEA,
		"refused", rep.Refused, "failed", rep.Failed)
	return rep
}

// drainLocator is the ring without this node: where every document lives
// once the node departs. Self is this node's own name, which is NOT in
// the ring, so Locate never short-circuits on it and the first live
// owner is always a remote candidate.
func (n *Node) drainLocator(peers []Peer) *resolve.HashLocator {
	if len(peers) == 0 {
		return nil
	}
	members := make([]string, 0, len(peers))
	byName := make(map[string]Peer, len(peers))
	for _, p := range peers {
		name := ringName(p)
		members = append(members, name)
		byName[name] = p
	}
	ring, err := chash.New(0, members...)
	if err != nil {
		n.warn("drain ring build failed", nil, "err", err)
		return nil
	}
	return &resolve.HashLocator{
		Ring:        ring,
		Self:        n.hashName,
		Epoch:       n.epoch.Load(),
		Fingerprint: ring.Fingerprint(),
		Candidate: func(member string) (resolve.Candidate, bool) {
			p, ok := byName[member]
			if !ok || !n.health.Allow(p.HTTP) {
				return resolve.Candidate{}, false
			}
			return resolve.Candidate{ID: p.HTTP}, true
		},
	}
}

// destAges caches each destination's piggybacked expiration age across a
// migration pass, so the EA gate sharpens as the pass learns. Unknown
// destinations are pushed to optimistically — the first exchange teaches.
type destAges struct {
	mu    sync.Mutex
	known map[string]time.Duration
}

func (d *destAges) get(addr string) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	age, ok := d.known[addr]
	return age, ok
}

func (d *destAges) set(addr string, age time.Duration) {
	d.mu.Lock()
	d.known[addr] = age
	d.mu.Unlock()
}

// migrate walks the store with bounded concurrency, routing each
// document through dest (returning false keeps it local) and tallying
// the per-document results. abort, when set, is polled between documents
// and cuts the pass short (Aborted=true).
func (n *Node) migrate(reason string, epoch int64, dest func(string) (string, bool), abort func() bool) MigrationReport {
	start := time.Now()
	rep := MigrationReport{Epoch: epoch, Reason: reason}
	urls := n.store.URLs()

	var mu sync.Mutex
	tally := func(res int, bytes int64) {
		n.om.migrations[res].Inc()
		n.om.migrBytes.Add(bytes)
		mu.Lock()
		rep.Scanned++
		switch res {
		case mrKept:
			rep.Kept++
		case mrTransferred:
			rep.Transferred++
			rep.TransferredBytes += bytes
		case mrSkippedEA:
			rep.SkippedEA++
		case mrRefused:
			rep.Refused++
		case mrFailed:
			rep.Failed++
		}
		mu.Unlock()
	}

	ages := &destAges{known: make(map[string]time.Duration)}
	work := make(chan string)
	var wg sync.WaitGroup
	for i := 0; i < migrateConcurrency; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for url := range work {
				res, bytes := n.migrateDoc(url, dest, ages)
				tally(res, bytes)
			}
		}()
	}
	aborted := false
	for _, url := range urls {
		if abort != nil && abort() {
			aborted = true
		}
		select {
		case <-n.closed:
			aborted = true
		default:
		}
		if aborted {
			break
		}
		work <- url
	}
	close(work)
	wg.Wait()
	rep.Aborted = aborted
	rep.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
	return rep
}

// migrateDoc moves one document. Ordering is the invariant-bearing part:
// the local copy is removed BEFORE the push, so no poll of the group can
// ever see two copies; a push that then fails or is refused leaves the
// document origin-recoverable, never duplicated.
func (n *Node) migrateDoc(url string, dest func(string) (string, bool), ages *destAges) (int, int64) {
	addr, move := dest(url)
	if !move {
		return mrKept, 0
	}
	entry, ok := n.store.Entry(url)
	if !ok {
		// Evicted underneath the walk: nothing left to move.
		return mrKept, 0
	}
	if !n.store.Remove(url) {
		return mrKept, 0
	}
	idle := n.now().Sub(entry.LastHit)
	if age, known := ages.get(addr); known && age != cache.NoContention && idle > age {
		return mrSkippedEA, 0
	}
	stored, destAge, err := n.pushCopy(addr, entry.Doc)
	if err != nil {
		n.health.ReportFailure(addr)
		n.warn("migration push failed", nil, "url", url, "dest", addr, "err", err)
		return mrFailed, 0
	}
	n.health.ReportSuccess(addr)
	ages.set(addr, destAge)
	if !stored {
		return mrRefused, 0
	}
	return mrTransferred, entry.Doc.Size
}

// pushCopy offers doc to addr over the fetch protocol's PUT verb,
// streaming the (synthetic) body, and returns whether the destination
// stored it plus the destination's piggybacked expiration age.
func (n *Node) pushCopy(addr string, doc cache.Document) (stored bool, destAge time.Duration, err error) {
	resp, err := n.exchange(addr, hproto.Request{
		URL:          doc.URL,
		RequesterAge: n.store.ExpirationAge(n.now()),
		SizeHint:     doc.Size,
		Push:         true,
	}, doc.Size, nil)
	if err != nil {
		return false, 0, err
	}
	return resp.Status == hproto.StatusOK, resp.ResponderAge, nil
}

// servePush is the receiving half of a migration handoff: drain the
// offered body (the exchange must stay in sync whatever we decide), then
// store iff mayAcceptPush allows it. 200 means stored; 404 means
// declined; either way this node's expiration age rides back for the
// sender's EA gate.
func (n *Node) servePush(conn io.Writer, rec *connRec, req hproto.Request) {
	if req.SizeHint > 0 {
		if err := rec.copyBody(io.Discard, req.SizeHint); err != nil {
			n.warn("push body truncated", nil, "url", req.URL, "err", err)
			return
		}
	}
	stored := n.mayAcceptPush(req.URL) && n.putIfFits(cache.Document{URL: req.URL, Size: req.SizeHint})
	status := hproto.StatusNotFound
	if stored {
		status = hproto.StatusOK
	}
	if err := hproto.WriteResponse(conn, hproto.Response{
		Status:       status,
		ResponderAge: n.store.ExpirationAge(n.now()),
	}, nil); err != nil {
		n.warn("write push response failed", nil, "err", err)
	}
}

// mayAcceptPush reports whether this node may store a pushed copy of
// url: never while draining; always under ICP/digest location (pushes
// only arrive from an explicit drain spreading sole copies); under hash
// location iff this node sits within the first TWO raw ring owners.
// Position one is the plain case — the sender rebalanced the document
// to its new home. Position two covers a drain handoff, where the
// receiver's ring still lists the draining sender as owner one until
// the leave is published. No health gating and no fingerprint check:
// senders remove their copy before any byte travels, so accepting a
// push can never mint a second copy — which is also why a warming node
// accepts pushes while refusing resolve-keeps.
func (n *Node) mayAcceptPush(url string) bool {
	if n.draining.Load() {
		return false
	}
	h := n.hash.Load()
	if n.location != resolve.LocateHash || h == nil || h.Ring == nil {
		return true
	}
	for _, owner := range h.Ring.Owners(url, 2) {
		if owner == h.Self {
			return true
		}
	}
	return false
}
