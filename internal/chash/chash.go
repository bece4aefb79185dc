// Package chash implements consistent hashing over cache nodes (Karger et
// al., "Web Caching with Consistent Hashing", WWW8), one of the
// ICP-alternative designs the paper's related-work section cites. It powers
// the hash-partitioned placement baseline: every URL has exactly one home
// cache, so the group holds at most one copy of anything — the opposite
// extreme from ad-hoc replication, with the EA scheme in between.
package chash

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// Ring is a consistent-hash ring with virtual nodes. It is immutable after
// construction except through Add/Remove; lookups are O(log n).
type Ring struct {
	replicas int
	points   []point
	nodes    map[string]struct{}
}

type point struct {
	hash uint64
	node string
}

// DefaultReplicas is the virtual-node count per real node, enough to keep
// the load spread within a few percent for small groups.
const DefaultReplicas = 128

// New builds a ring with the given virtual-node count per node (0 selects
// DefaultReplicas).
func New(replicas int, nodes ...string) (*Ring, error) {
	if replicas == 0 {
		replicas = DefaultReplicas
	}
	if replicas < 1 {
		return nil, fmt.Errorf("chash: replicas must be positive, got %d", replicas)
	}
	r := &Ring{
		replicas: replicas,
		nodes:    make(map[string]struct{}, len(nodes)),
	}
	for _, n := range nodes {
		if err := r.Add(n); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// Add inserts a node and its virtual points.
func (r *Ring) Add(node string) error {
	if node == "" {
		return fmt.Errorf("chash: empty node name")
	}
	if _, ok := r.nodes[node]; ok {
		return fmt.Errorf("chash: node %q already present", node)
	}
	r.nodes[node] = struct{}{}
	for i := 0; i < r.replicas; i++ {
		r.points = append(r.points, point{
			hash: hash64(fmt.Sprintf("%s#%d", node, i)),
			node: node,
		})
	}
	r.sortPoints()
	return nil
}

// Remove deletes a node and its virtual points.
func (r *Ring) Remove(node string) error {
	if _, ok := r.nodes[node]; !ok {
		return fmt.Errorf("chash: node %q not present", node)
	}
	delete(r.nodes, node)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			kept = append(kept, p)
		}
	}
	r.points = kept
	return nil
}

// Len returns the number of real nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Members returns the real node names in sorted order.
func (r *Ring) Members() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Contains reports whether node is a member of the ring.
func (r *Ring) Contains(node string) bool {
	_, ok := r.nodes[node]
	return ok
}

// Fingerprint hashes the sorted member set: two rings fingerprint equal
// iff they route over the same members. Elastic membership piggybacks it
// on resolve requests so a responder can tell a requester that failed
// over around dead owners (same membership view — act as home) from one
// that simply has not learned the current membership yet (keeping a copy
// for it would duplicate the real owner's).
func (r *Ring) Fingerprint() uint64 {
	h := fnv.New64a()
	for _, n := range r.Members() {
		_, _ = h.Write([]byte(n))
		_, _ = h.Write([]byte{0})
	}
	return mix64(h.Sum64())
}

// Owner returns the node responsible for key ("" when the ring is empty).
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].node
}

// Owners returns the first n distinct nodes clockwise from key, a
// replication chain for schemes that want backups.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]struct{}, n)
	out := make([]string, 0, n)
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, ok := seen[p.node]; ok {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

func (r *Ring) sortPoints() {
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].node < r.points[j].node
	})
}

func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return mix64(h.Sum64())
}

// mix64 is a SplitMix64-style finalizer: FNV alone distributes short,
// similar strings (node names with numeric suffixes) poorly around the
// ring, which skews the load spread.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
