package chash

import (
	"fmt"
	"testing"
	"testing/quick"
)

// Property tests for the rebalance guarantees elastic membership leans
// on: adding or removing one of N nodes moves ~1/N of the key space and
// never reassigns a key between two surviving nodes, and the membership
// fingerprint identifies the member set exactly.

func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("http://origin%03d/path/doc-%d", i%97, i)
	}
	return keys
}

func ringOf(t *testing.T, nodes ...string) *Ring {
	t.Helper()
	r, err := New(0, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestRebalanceDeltaOnJoin pins the join property across group sizes:
// the new node takes ~1/(N+1) of the keys, and every key it does not
// take keeps its old owner.
func TestRebalanceDeltaOnJoin(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{2, 4, 8, 16} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("cache-%d", i)
		}
		old := ringOf(t, nodes...)
		grown := ringOf(t, append(append([]string(nil), nodes...), "joiner")...)

		moved := 0
		for _, k := range keys {
			from, to := old.Owner(k), grown.Owner(k)
			if from == to {
				continue
			}
			moved++
			if to != "joiner" {
				t.Fatalf("N=%d: key %q moved %s -> %s, neither the joiner", n, k, from, to)
			}
		}
		want := len(keys) / (n + 1)
		if moved < want/2 || moved > want*2 {
			t.Fatalf("N=%d: join moved %d of %d keys, want ~%d", n, moved, len(keys), want)
		}
	}
}

// TestRebalanceDeltaOnLeave is the converse: a leaving node's keys are
// the ONLY ones that move, and they spread across the survivors.
func TestRebalanceDeltaOnLeave(t *testing.T) {
	keys := testKeys(20000)
	for _, n := range []int{3, 5, 9} {
		nodes := make([]string, n)
		for i := range nodes {
			nodes[i] = fmt.Sprintf("cache-%d", i)
		}
		old := ringOf(t, nodes...)
		gone := nodes[n/2]
		shrunk := ringOf(t, nodes...)
		if err := shrunk.Remove(gone); err != nil {
			t.Fatal(err)
		}

		moved, inherited := 0, map[string]int{}
		for _, k := range keys {
			from, to := old.Owner(k), shrunk.Owner(k)
			if from != gone && to != from {
				t.Fatalf("N=%d: survivor-owned key %q moved %s -> %s", n, k, from, to)
			}
			if from == gone {
				moved++
				inherited[to]++
			}
		}
		want := len(keys) / n
		if moved < want/2 || moved > want*2 {
			t.Fatalf("N=%d: leave moved %d of %d keys, want ~%d", n, moved, len(keys), want)
		}
		if len(inherited) < 2 {
			t.Fatalf("N=%d: departed share fell to a single survivor: %v", n, inherited)
		}
	}
}

// TestRebalancePreservesSurvivorOrder checks the chain property the
// hash locator's failover depends on: removing a node never reorders
// the remaining owners of any key — the survivors appear in the new
// chain in exactly their old relative order, so a requester and a
// responder that disagree only about the dead node still walk the same
// failover sequence.
func TestRebalancePreservesSurvivorOrder(t *testing.T) {
	nodes := []string{"a", "b", "c", "d", "e", "f"}
	full := ringOf(t, nodes...)
	for _, gone := range nodes {
		shrunk := ringOf(t, nodes...)
		if err := shrunk.Remove(gone); err != nil {
			t.Fatal(err)
		}
		for _, k := range testKeys(2000) {
			before := full.Owners(k, len(nodes))
			after := shrunk.Owners(k, len(nodes)-1)
			// Strip the departed node from the old chain; what is left
			// must equal the new chain verbatim.
			survivors := make([]string, 0, len(before)-1)
			for _, o := range before {
				if o != gone {
					survivors = append(survivors, o)
				}
			}
			if len(survivors) != len(after) {
				t.Fatalf("remove %s: chain length %d vs %d for %q", gone, len(after), len(survivors), k)
			}
			for i := range survivors {
				if survivors[i] != after[i] {
					t.Fatalf("remove %s: chain for %q reordered: %v -> %v", gone, k, before, after)
				}
			}
		}
	}
}

// TestFingerprintIdentifiesMemberSet: equal member sets fingerprint
// equal regardless of insertion order; any membership difference —
// including concatenation-ambiguous names — changes the fingerprint.
func TestFingerprintIdentifiesMemberSet(t *testing.T) {
	a := ringOf(t, "n1", "n2", "n3")
	b := ringOf(t, "n3", "n1", "n2")
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("same member set, different fingerprints")
	}
	distinct := []*Ring{
		a,
		ringOf(t, "n1", "n2"),
		ringOf(t, "n1", "n2", "n3", "n4"),
		ringOf(t, "n1", "n2", "n4"),
		ringOf(t, "n1n2", "n3"), // must not collide with {"n1","n2","n3"}
		ringOf(t),
	}
	seen := map[uint64]int{}
	for i, r := range distinct {
		fp := r.Fingerprint()
		if j, dup := seen[fp]; dup {
			t.Fatalf("rings %d and %d share fingerprint %x", i, j, fp)
		}
		seen[fp] = i
	}
}

// TestFingerprintTracksMutation: Add/Remove change the fingerprint and
// removing what was added restores it.
func TestFingerprintTracksMutation(t *testing.T) {
	r := ringOf(t, "a", "b", "c")
	orig := r.Fingerprint()
	if err := r.Add("d"); err != nil {
		t.Fatal(err)
	}
	grown := r.Fingerprint()
	if grown == orig {
		t.Fatal("Add did not change the fingerprint")
	}
	if err := r.Remove("d"); err != nil {
		t.Fatal(err)
	}
	if r.Fingerprint() != orig {
		t.Fatal("round-trip Add/Remove did not restore the fingerprint")
	}
}

// TestQuickJoinMovesOnlyToJoiner is the join delta property under
// randomized keys: any key whose owner changes moves TO the joiner.
func TestQuickJoinMovesOnlyToJoiner(t *testing.T) {
	old := ringOf(t, "n0", "n1", "n2", "n3")
	grown := ringOf(t, "n0", "n1", "n2", "n3", "n4")
	f := func(key string) bool {
		from, to := old.Owner(key), grown.Owner(key)
		return from == to || to == "n4"
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
