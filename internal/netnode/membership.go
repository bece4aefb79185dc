package netnode

// Elastic membership: the node's neighbour set is mutable at runtime.
// Peers join and leave through the admin API (AddPeer/RemovePeer), and a
// peer whose circuit breaker stays dead past the configured grace window
// (Config.EjectAfter) is ejected from the locator set automatically —
// ICP fan-outs stop paying its timeout and the hash ring stops routing
// URLs to it — then readmitted when an out-of-band probe proves it back.
//
// The configured member list and the ejected set live behind one small
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
	"time"

	"eacache/internal/cache"
	"eacache/internal/health"
	"eacache/internal/resolve"
)

// ejection is the bookkeeping for one peer removed from the locator set.
type ejection struct {
	// since is when the grace window expired and the peer was ejected.
	since time.Time
	// nextProbe is the earliest next out-of-band readmission probe.
	nextProbe time.Time
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
// request path reads: breaker bookkeeping, the immutable peer snapshot,
// and (under hash location) a rebuilt ring stamped with the bumped epoch,
// which also kicks the migrator. Callers hold n.mem.
func (n *Node) publishLocked() {
	members := n.mem.members
	// The breaker keeps state for ejected members too — recovery is
	// decided from it — and drops only peers that left the member list.
	keep := make(map[string]bool, len(members))
	for _, p := range members {
		keep[p.HTTP] = true
	}
	n.health.Forget(keep)

	active := members
	if len(n.mem.ejected) > 0 {
		active = make([]Peer, 0, len(members))
		for _, p := range members {
			if _, out := n.mem.ejected[p.HTTP]; !out {
				active = append(active, p)
			}
		}
	}
	snapshot := append([]Peer(nil), active...)
	n.peers.Store(newPeerSet(snapshot))
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
	n.mem.members = append(append([]Peer(nil), n.mem.members...), p)
	n.publishLocked()
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
	n.mem.members = members
	delete(n.mem.ejected, removed.HTTP)
	n.publishLocked()
	n.warn("peer left", nil, "peer", removed.HTTP, "epoch", n.epoch.Load())
	return nil
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
// (configured members minus ejected ones).
func (n *Node) ActivePeers() int { return len(n.peerList()) }

// warming reports whether the node is inside its JoinWarmup window
// (set only under hash location): it serves what it holds and relays,
// but keeps no new copies, because peers with a pre-join view of the
// ring may still hold the copies it would otherwise duplicate.
func (n *Node) warming() bool {
	return !n.warmUntil.IsZero() && time.Now().Before(n.warmUntil)
}

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
// copy. Draining and warming nodes never keep. h is the node's ring.
func (n *Node) mayKeepResolved(h *resolve.HashLocator, reqFP uint64) bool {
	if n.draining.Load() || n.warming() {
		return false
	}
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
	// rejoins automatically when a readmission probe succeeds.
	Ejected    bool   `json:"ejected"`
	EjectedFor string `json:"ejected_for,omitempty"`
}

// Members returns every configured member (including ejected ones) with
// its breaker and ejection status.
func (n *Node) Members() []MemberStatus {
	now := time.Now()
	n.mem.Lock()
	defer n.mem.Unlock()
	out := make([]MemberStatus, 0, len(n.mem.members))
	for _, p := range n.mem.members {
		st := n.health.Status(p.HTTP)
		ms := MemberStatus{
			Name:     ringName(p),
			ICP:      p.ICP.String(),
			HTTP:     p.HTTP,
			Admin:    p.Admin,
			State:    st.State.String(),
			Failures: st.Failures,
		}
		if !st.Since.IsZero() {
			ms.StateSince = st.Since.UTC().Format(time.RFC3339Nano)
		}
		if ej, out := n.mem.ejected[p.HTTP]; out {
			ms.Ejected = true
			ms.EjectedFor = now.Sub(ej.since).Round(time.Millisecond).String()
		}
		out = append(out, ms)
	}
	return out
}

// membershipLoop is the ejection/readmission sweeper, started when
// Config.EjectAfter is set. It ticks a few times per grace window so an
// ejection lands within ~EjectAfter*5/4 of the breaker opening, and at
// least every half probe interval so recoveries are noticed promptly.
func (n *Node) membershipLoop() {
	defer n.wg.Done()
	tick := n.ejectAfter / 4
	if probe := n.readmitProbe / 2; probe > 0 && probe < tick {
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

// sweepMembership ejects members dead past the grace window and probes
// ejected ones for readmission. Ejection is measured on the real clock
// (breaker timestamps use it too, unless a test injects its own).
func (n *Node) sweepMembership(now time.Time) {
	var toProbe []Peer
	n.mem.Lock()
	changed := false
	for _, p := range n.mem.members {
		if ej, out := n.mem.ejected[p.HTTP]; out {
			if n.health.Status(p.HTTP).State == health.Healthy {
				// An in-flight exchange already proved the peer back
				// (e.g. it answered a stale requester); skip the probe.
				delete(n.mem.ejected, p.HTTP)
				n.noteReadmission(p, "in-band success")
				changed = true
			} else if !now.Before(ej.nextProbe) {
				ej.nextProbe = now.Add(n.readmitProbe)
				toProbe = append(toProbe, p)
			}
			continue
		}
		st := n.health.Status(p.HTTP)
		if st.State == health.Dead && !st.Since.IsZero() && now.Sub(st.Since) >= n.ejectAfter {
			n.mem.ejected[p.HTTP] = &ejection{since: now, nextProbe: now.Add(n.readmitProbe)}
			n.om.memEvents[memEjection].Inc()
			n.warn("peer ejected after grace window", nil,
				"peer", p.HTTP, "dead_for", now.Sub(st.Since), "grace", n.ejectAfter)
			changed = true
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

// probeURL is the synthetic document fetched by readmission probes. Any
// answer — hit or application-level miss — proves the peer's fetch path
// is back; only transport failures keep it ejected. The probe is
// out-of-band because an ejected peer is outside the fan-out set, so the
// breaker's own in-band probes stop reaching it.
const probeURL = "http://eacache.invalid/readmit-probe"

func (n *Node) probePeer(addr string) bool {
	_, _, _, err := n.fetchFrom(nil, addr, probeURL, 0, cache.NoContention, false, 0)
	return err == nil || errors.Is(err, errNotFound)
}

// readmit restores an ejected peer after a successful probe: breaker
// snapped healthy first, so the republished locator set accepts it.
func (n *Node) readmit(p Peer) {
	n.health.ReportSuccess(p.HTTP)
	n.mem.Lock()
	defer n.mem.Unlock()
	if _, out := n.mem.ejected[p.HTTP]; !out {
		return
	}
	delete(n.mem.ejected, p.HTTP)
	n.noteReadmission(p, "probe success")
	n.publishLocked()
}

// noteReadmission records one readmission; callers hold n.mem.
func (n *Node) noteReadmission(p Peer, how string) {
	n.om.memEvents[memReadmission].Inc()
	n.warn("peer readmitted", nil, "peer", p.HTTP, "via", how)
}
