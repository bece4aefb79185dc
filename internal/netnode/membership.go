package netnode

// Elastic membership: the node's neighbour set is mutable at runtime.
// Peers join and leave through the admin API (AddPeer/RemovePeer), and
// every configured member carries one liveness record (a breaker): a
// dead member is left out of ICP, hash and digest location, probed out
// of band every Config.ReadmitProbe, and ejected from the locator set
// once it has stayed dead past Config.EjectAfter — so the hash ring
// stops routing URLs to it too — until a probe proves it back.
//
// The configured member list and the records live behind one small
// mutex (n.mem); what the request path reads stays lock-free: every
// change publishes a fresh immutable peer snapshot (n.peers) and, under
// hash location, a fresh HashLocator (n.hash), both swapped atomically
// and stamped with a monotonically increasing membership epoch. A
// request therefore sees one consistent topology end to end; under hash
// location every publish also kicks the background migrator (migrate.go)
// so resident copies follow their new owners.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"eacache/internal/cache"
	"eacache/internal/resolve"
)

// Liveness states, as eac_peer_breaker_state reports them.
const (
	peerHealthy int32 = iota
	peerSuspect
	peerDead
)

var peerStateNames = [...]string{"healthy", "suspect", "dead"}

// liveness is one configured member's breaker record. SetPeers and
// AddPeer create it, it survives every publish, and RemovePeer drops it.
// Reports serialise on the record's own mutex; the request path reads
// state with one atomic load. A nil record (a peer that has left) reads
// as healthy and ignores reports.
type liveness struct {
	state atomic.Int32

	mu       sync.Mutex // serialises reports; guards failures and since
	failures int        // consecutive
	since    time.Time  // when state was entered; zero: healthy since joining

	// The sweeper's bookkeeping, guarded by n.mem.
	nextProbe time.Time // earliest next out-of-band probe while dead
	ejectedAt time.Time // zero while the member is in the locator set
}

// dead reports whether l's breaker is open.
func (l *liveness) dead() bool { return l != nil && l.state.Load() == peerDead }

// status returns l's state, consecutive failures and state-entry time.
func (l *liveness) status() (state int32, failures int, since time.Time) {
	if l == nil {
		return peerHealthy, 0, time.Time{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.state.Load(), l.failures, l.since
}

// report records one exchange's outcome and returns the transition it
// made (from == to when none): a failure makes the member suspect, and
// deadAfter in a row dead; a success makes it healthy. A success on a
// healthy member has no failures to reset, so it takes no lock.
func (l *liveness) report(ok bool, deadAfter int) (from, to int32) {
	if l == nil || ok && l.state.Load() == peerHealthy {
		return peerHealthy, peerHealthy
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failures++
	if ok {
		l.failures = 0
	}
	from, to = l.state.Load(), peerHealthy
	switch {
	case l.failures >= deadAfter:
		to = peerDead
	case l.failures > 0:
		to = peerSuspect
	}
	if from != to {
		l.state.Store(to)
		l.since = time.Now()
	}
	return from, to
}

// liveness returns addr's record in the published snapshot, which holds
// every configured member's, ejected ones included (nil for a stranger).
func (n *Node) liveness(addr string) *liveness {
	if set := n.peers.Load(); set != nil {
		return set.live[addr]
	}
	return nil
}

func (n *Node) reportSuccess(addr string) { n.report(addr, true) }
func (n *Node) reportFailure(addr string) { n.report(addr, false) }

// report feeds one exchange's outcome with addr to its breaker, counting
// and logging the transition it makes.
func (n *Node) report(addr string, ok bool) {
	from, to := n.liveness(addr).report(ok, n.deadAfter)
	if from == to {
		return
	}
	switch {
	case to == peerDead:
		n.om.breaker[brOpen].Inc()
	case from == peerDead:
		n.om.breaker[brClose].Inc()
	}
	n.warn("peer breaker state change", nil, "peer", addr, "from", peerStateNames[from], "to", peerStateNames[to])
}

// ringName is a peer's hash-ring member name (Peer.Name, defaulting to
// the fetch address).
func ringName(p Peer) string {
	if p.Name != "" {
		return p.Name
	}
	return p.HTTP
}

// publishLocked pushes the current membership out to everything the
// request path reads: the immutable peer snapshot of the members not
// ejected, carrying every member's liveness record, and (under hash
// location) a rebuilt ring stamped with the bumped epoch, which also
// kicks the migrator. Callers hold n.mem.
func (n *Node) publishLocked() {
	snapshot := make([]Peer, 0, len(n.mem.members))
	for _, p := range n.mem.members {
		if n.mem.live[p.HTTP].ejectedAt.IsZero() {
			snapshot = append(snapshot, p)
		}
	}
	n.peers.Store(newPeerSet(snapshot, n.mem.live))
	epoch := n.epoch.Add(1)
	if n.location == resolve.LocateHash {
		n.rebuildHashRing(snapshot, epoch)
		n.kickMigration()
	}
}

// AddPeer admits a new member at runtime: validates it against the
// current set (duplicate fetch address or ring name is an error, as is
// colliding with this node's own ring name), then publishes the new
// topology and — under hash location — starts rebalancing toward it.
func (n *Node) AddPeer(p Peer) error {
	if p.ICP == nil {
		return errors.New("netnode: peer needs an ICP address")
	}
	if p.HTTP == "" {
		return errors.New("netnode: peer needs a fetch (HTTP) address")
	}
	name := ringName(p)
	n.mem.Lock()
	defer n.mem.Unlock()
	if n.location == resolve.LocateHash && name == n.hashName {
		return fmt.Errorf("netnode: peer ring name %q collides with this node's own", name)
	}
	for _, m := range n.mem.members {
		if m.HTTP == p.HTTP {
			return fmt.Errorf("netnode: peer %s is already a member", p.HTTP)
		}
		if ringName(m) == name {
			return fmt.Errorf("netnode: ring name %q is already taken by %s", name, m.HTTP)
		}
	}
	n.setMembersLocked(append(append([]Peer(nil), n.mem.members...), p))
	n.warn("peer joined", nil, "peer", p.HTTP, "name", name, "epoch", n.epoch.Load())
	return nil
}

// RemovePeer removes the member whose ring name or fetch address matches
// key, publishing the shrunk topology (and, under hash location,
// rebalancing the departed member's share across the survivors).
func (n *Node) RemovePeer(key string) error {
	n.mem.Lock()
	defer n.mem.Unlock()
	idx := -1
	for i, m := range n.mem.members {
		if m.HTTP == key || ringName(m) == key {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("netnode: no member %q", key)
	}
	removed := n.mem.members[idx]
	members := make([]Peer, 0, len(n.mem.members)-1)
	members = append(members, n.mem.members[:idx]...)
	members = append(members, n.mem.members[idx+1:]...)
	n.setMembersLocked(members)
	n.warn("peer left", nil, "peer", removed.HTTP, "epoch", n.epoch.Load())
	return nil
}

// setMembersLocked makes members the configured set and publishes it. A
// member keeps its liveness record, a new one starts healthy, and a
// departed one's record is dropped. The record map is replaced, never
// mutated, because published peer snapshots share it. Callers hold
// n.mem.
func (n *Node) setMembersLocked(members []Peer) {
	live := make(map[string]*liveness, len(members))
	for _, p := range members {
		l := n.mem.live[p.HTTP]
		if l == nil {
			l = new(liveness)
		}
		live[p.HTTP] = l
	}
	n.mem.members, n.mem.live = members, live
	n.publishLocked()
}

// Epoch returns the membership revision: 0 before the first SetPeers,
// bumped by every join, leave, ejection, and readmission.
func (n *Node) Epoch() int64 { return n.epoch.Load() }

// RingFingerprint returns the published hash ring's topology fingerprint,
// or 0 when the node does not run hash location (or has no ring yet).
// Two members whose fingerprints match route every URL to the same home.
func (n *Node) RingFingerprint() uint64 {
	if h := n.hash.Load(); h != nil {
		return h.Fingerprint
	}
	return 0
}

// ActivePeers returns how many peers are currently in the locator set
// (configured members minus ejected ones; dead ones still count).
func (n *Node) ActivePeers() int { return len(n.peerList()) }

// mayKeepResolved decides whether this node, asked to resolve a URL it
// does not hold, may keep the fetched copy as the group's only one. The
// requester's topology fingerprint is the evidence: a match means the
// requester routes over the same membership this node does and still
// chose it — every ring owner before this node failed the requester's
// health checks — so standing in as the acting home is exactly the
// failover the hash scheme promises. A mismatched (or absent)
// fingerprint means the requester's view is stale; the URL's real owner
// under the current ring may be alive and already holding the copy, so
// this node relays the body without storing rather than mint a second
// copy. h is the node's ring.
func (n *Node) mayKeepResolved(h *resolve.HashLocator, reqFP uint64) bool {
	if h == nil {
		return true
	}
	return reqFP != 0 && reqFP == h.Fingerprint
}

// Draining reports whether DrainHandoff has begun: the node still serves
// and relays, but keeps no new copies.
func (n *Node) Draining() bool { return n.draining.Load() }

// MemberStatus is one configured member's membership row, JSON-shaped
// for the admin API.
type MemberStatus struct {
	Name string `json:"name"`
	ICP  string `json:"icp"`
	HTTP string `json:"http"`
	// Admin is the member's admin/debug HTTP address when the joining
	// side shared one — the handle cluster introspection (cmd/eacctl)
	// uses to walk from any one member to the whole group.
	Admin    string `json:"admin,omitempty"`
	State    string `json:"state"`
	Failures int    `json:"failures"`
	// StateSince is when the breaker entered its current state
	// (RFC 3339; empty for a peer that has never transitioned).
	StateSince string `json:"state_since,omitempty"`
	// Ejected marks a member currently outside the locator set; it
	// rejoins automatically when a probe succeeds.
	Ejected    bool   `json:"ejected"`
	EjectedFor string `json:"ejected_for,omitempty"`
}

// Members returns every configured member (including ejected ones) with
// its liveness record.
func (n *Node) Members() []MemberStatus {
	now := time.Now()
	n.mem.Lock()
	defer n.mem.Unlock()
	out := make([]MemberStatus, 0, len(n.mem.members))
	for _, p := range n.mem.members {
		l := n.mem.live[p.HTTP]
		state, failures, since := l.status()
		ms := MemberStatus{
			Name:     ringName(p),
			ICP:      p.ICP.String(),
			HTTP:     p.HTTP,
			Admin:    p.Admin,
			State:    peerStateNames[state],
			Failures: failures,
		}
		if !since.IsZero() {
			ms.StateSince = since.UTC().Format(time.RFC3339Nano)
		}
		if !l.ejectedAt.IsZero() {
			ms.Ejected = true
			ms.EjectedFor = now.Sub(l.ejectedAt).Round(time.Millisecond).String()
		}
		out = append(out, ms)
	}
	return out
}

// membershipLoop is the liveness sweeper. It ticks a few times per grace
// window so an ejection lands within ~EjectAfter*5/4 of the breaker
// opening, and at least every half probe interval so a dead member is
// probed about every ReadmitProbe.
func (n *Node) membershipLoop() {
	defer n.wg.Done()
	tick := n.ejectAfter / 4
	if probe := n.readmitProbe / 2; probe < tick {
		tick = probe
	}
	if tick < 5*time.Millisecond {
		tick = 5 * time.Millisecond
	}
	if tick > time.Second {
		tick = time.Second
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-n.closed:
			return
		case <-t.C:
			n.sweepMembership(time.Now())
		}
	}
}

// sweepMembership readmits ejected members an in-band exchange proved
// back, ejects members dead past the grace window, and probes every dead
// or ejected member whose probe is due. It runs on the real clock, which
// also stamps the records.
func (n *Node) sweepMembership(now time.Time) {
	var toProbe []Peer
	n.mem.Lock()
	changed := false
	for _, p := range n.mem.members {
		l := n.mem.live[p.HTTP]
		state, _, since := l.status()
		ejected := !l.ejectedAt.IsZero()
		switch {
		case ejected && state == peerHealthy:
			// An in-flight exchange already proved the peer back (e.g.
			// it answered a stale requester); no probe needed.
			l.ejectedAt = time.Time{}
			n.noteReadmission(p, "in-band success")
			changed = true
			continue
		case !ejected && state == peerDead && now.Sub(since) >= n.ejectAfter:
			l.ejectedAt = now
			ejected = true
			n.om.memEvents[memEjection].Inc()
			n.warn("peer ejected after grace window", nil,
				"peer", p.HTTP, "dead_for", now.Sub(since), "grace", n.ejectAfter)
			changed = true
		}
		if state != peerDead && !ejected {
			continue
		}
		if l.nextProbe.Before(since) {
			l.nextProbe = since.Add(n.readmitProbe) // first probe of this outage
		}
		if !now.Before(l.nextProbe) {
			l.nextProbe = now.Add(n.readmitProbe)
			toProbe = append(toProbe, p)
		}
	}
	if changed {
		n.publishLocked()
	}
	n.mem.Unlock()

	// Probe outside the lock: each probe is a bounded network exchange.
	for _, p := range toProbe {
		if n.probePeer(p.HTTP) {
			n.readmit(p)
		}
	}
}

// probeURL is the synthetic document the sweeper's probes fetch. Any
// answer — hit or application-level miss — proves the peer's fetch path
// is back; only transport failures keep it dead. Probes run out of band,
// so no client request ever waits on a dead peer.
const probeURL = "http://eacache.invalid/readmit-probe"

func (n *Node) probePeer(addr string) bool {
	_, _, _, err := n.fetchFrom(nil, addr, probeURL, 0, cache.NoContention, false, 0)
	return err == nil || errors.Is(err, errNotFound)
}

// readmit closes a member's breaker after a successful probe and, if it
// was ejected, republishes the locator set with it.
func (n *Node) readmit(p Peer) {
	n.reportSuccess(p.HTTP)
	n.mem.Lock()
	defer n.mem.Unlock()
	l := n.mem.live[p.HTTP]
	if l == nil || l.ejectedAt.IsZero() {
		return
	}
	l.ejectedAt = time.Time{}
	n.noteReadmission(p, "probe success")
	n.publishLocked()
}

// noteReadmission records one readmission; callers hold n.mem.
func (n *Node) noteReadmission(p Peer, how string) {
	n.om.memEvents[memReadmission].Inc()
	n.warn("peer readmitted", nil, "peer", p.HTTP, "via", how)
}
