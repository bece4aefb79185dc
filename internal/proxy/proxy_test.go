package proxy

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/metrics"
	"eacache/internal/obs"
)

var t0 = time.Date(1994, time.November, 15, 12, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

// newProxy builds a proxy with a fresh LRU store of the given capacity.
func newProxy(t *testing.T, id string, capacity int64, scheme core.Scheme) *Proxy {
	t.Helper()
	store, err := cache.New(cache.Config{Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{ID: id, Store: store, Scheme: scheme, Origin: SizeHintOrigin{}})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// wire links proxies as full-mesh peers.
func wire(t *testing.T, proxies ...*Proxy) {
	t.Helper()
	for i, p := range proxies {
		var sibs []*Proxy
		for j, s := range proxies {
			if i != j {
				sibs = append(sibs, s)
			}
		}
		if err := p.SetSiblings(sibs...); err != nil {
			t.Fatal(err)
		}
	}
}

func TestNewValidation(t *testing.T) {
	store, err := cache.New(cache.Config{Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Store: store, Scheme: core.AdHoc{}}); err == nil {
		t.Fatal("empty ID accepted")
	}
	if _, err := New(Config{ID: "x", Scheme: core.AdHoc{}}); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := New(Config{ID: "x", Store: store}); err == nil {
		t.Fatal("nil scheme accepted")
	}
}

func TestSelfWiringRejected(t *testing.T) {
	p := newProxy(t, "a", 100, core.AdHoc{})
	if err := p.SetSiblings(p); err == nil {
		t.Fatal("self sibling accepted")
	}
	if err := p.SetParent(p); err == nil {
		t.Fatal("self parent accepted")
	}
}

func TestMissThenLocalHit(t *testing.T) {
	p := newProxy(t, "a", 1000, core.AdHoc{})
	res, err := p.Request("http://d/", 100, at(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss || !res.Stored {
		t.Fatalf("first request = %+v, want stored miss", res)
	}
	if res.Doc.Size != 100 {
		t.Fatalf("size = %d", res.Doc.Size)
	}
	res, err = p.Request("http://d/", 100, at(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.LocalHit {
		t.Fatalf("second request = %+v, want local hit", res)
	}
}

func TestEmptyURLRejected(t *testing.T) {
	p := newProxy(t, "a", 1000, core.AdHoc{})
	if _, err := p.Request("", 10, at(0)); err == nil {
		t.Fatal("empty URL accepted")
	}
}

func TestNoOriginFails(t *testing.T) {
	store, err := cache.New(cache.Config{Capacity: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{ID: "a", Store: store, Scheme: core.AdHoc{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Request("http://d/", 10, at(0)); err == nil {
		t.Fatal("miss without origin succeeded")
	}
}

func TestRemoteHitAdHoc(t *testing.T) {
	a := newProxy(t, "a", 1000, core.AdHoc{})
	b := newProxy(t, "b", 1000, core.AdHoc{})
	wire(t, a, b)

	if _, err := a.Request("http://d/", 100, at(0)); err != nil { // miss, stored at a
		t.Fatal(err)
	}
	res, err := b.Request("http://d/", 100, at(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit || res.Responder != "a" {
		t.Fatalf("res = %+v, want remote hit from a", res)
	}
	// Ad-hoc: b stores a copy, and the transfer counts as a hit at a.
	if !res.Stored || !b.Store().Contains("http://d/") {
		t.Fatal("ad-hoc requester did not store")
	}
	ea, _ := a.Store().Entry("http://d/")
	if ea.Hits != 2 {
		t.Fatalf("responder hits = %d, want 2 (fresh lease of life)", ea.Hits)
	}
}

func TestRemoteHitEATieKeepsSingleCopy(t *testing.T) {
	// Cold caches: both expiration ages are NoContention, a tie. Under
	// the strict EA rules the requester must NOT store and the responder
	// must NOT be promoted.
	a := newProxy(t, "a", 1000, core.EA{})
	b := newProxy(t, "b", 1000, core.EA{})
	wire(t, a, b)

	if _, err := a.Request("http://d/", 100, at(0)); err != nil {
		t.Fatal(err)
	}
	res, err := b.Request("http://d/", 100, at(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit {
		t.Fatalf("res = %+v", res)
	}
	if res.Stored || b.Store().Contains("http://d/") {
		t.Fatal("EA stored on a cold tie")
	}
	ea, _ := a.Store().Entry("http://d/")
	if ea.Hits != 1 {
		t.Fatalf("responder hits = %d, want 1 (no promotion on tie)", ea.Hits)
	}
	// Every subsequent request at b keeps being a remote hit.
	res, err = b.Request("http://d/", 100, at(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit {
		t.Fatalf("res = %+v, want remote hit again", res)
	}
}

// contendStore drives evictions through a store so its expiration age
// becomes finite and small.
func contendStore(t *testing.T, p *Proxy, n int, start int) {
	t.Helper()
	for i := 0; i < n; i++ {
		url := "http://churn/" + string(rune('a'+i%26)) + string(rune('0'+i%10))
		if _, err := p.Request(url, 400, at(start+i)); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoteHitEAStoresAtLessContendedCache(t *testing.T) {
	// a is heavily contended (small cache, lots of churn); b is idle.
	// When b fetches from a, b's age (NoContention) exceeds a's, so b
	// stores the copy.
	a := newProxy(t, "a", 1000, core.EA{})
	b := newProxy(t, "b", 100000, core.EA{})
	wire(t, a, b)

	contendStore(t, a, 30, 0)
	if _, err := a.Request("http://d/", 400, at(100)); err != nil {
		t.Fatal(err)
	}
	res, err := b.Request("http://d/", 400, at(101))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit || !res.Stored {
		t.Fatalf("res = %+v, want stored remote hit", res)
	}
	if !b.Store().Contains("http://d/") {
		t.Fatal("copy missing at requester")
	}
}

func TestRemoteHitEAPromotesAtLessContendedResponder(t *testing.T) {
	// b (requester) is churned; a (responder) is idle: a's age wins, b
	// must not store, and a's copy is promoted.
	a := newProxy(t, "a", 100000, core.EA{})
	b := newProxy(t, "b", 1000, core.EA{})
	wire(t, a, b)

	if _, err := a.Request("http://d/", 400, at(0)); err != nil {
		t.Fatal(err)
	}
	contendStore(t, b, 30, 1)

	before, _ := a.Store().Entry("http://d/")
	res, err := b.Request("http://d/", 400, at(100))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit || res.Stored {
		t.Fatalf("res = %+v, want unstored remote hit", res)
	}
	if !res.Promoted {
		t.Fatalf("res = %+v, want promotion", res)
	}
	after, _ := a.Store().Entry("http://d/")
	if after.Hits != before.Hits+1 || !after.LastHit.Equal(at(100)) {
		t.Fatalf("responder copy not promoted: before=%+v after=%+v", before, after)
	}
}

// verdicts reduces a decision log to "node role verdict" lines.
func verdicts(log *obs.DecisionLog) []string {
	var out []string
	for _, d := range log.Snapshot() {
		out = append(out, d.Node+" "+d.Role+" "+d.Verdict)
	}
	return out
}

func TestDecisionLogSeesVerdictSequence(t *testing.T) {
	log := obs.NewDecisionLog(16)
	a := newProxy(t, "a", 10000, core.EA{})
	b := newProxy(t, "b", 10000, core.EA{})
	parent := newProxy(t, "parent", 10000, core.EA{})
	c := newProxy(t, "c", 10000, core.EA{})
	for _, p := range []*Proxy{a, b, parent, c} {
		p.decisions = log
	}
	wire(t, a, b)
	if err := c.SetParent(parent); err != nil {
		t.Fatal(err)
	}
	for _, step := range []struct {
		p   *Proxy
		sec int
	}{
		{a, 0}, // origin fetch: a keeps its copy
		{a, 1}, // local hit: no verdict
		{b, 2}, // cold tie: a does not promote, b does not store
		{c, 3}, // miss via the parent: the parent does not keep, c does
		{c, 4}, // local hit at c
	} {
		if _, err := step.p.Request("http://d/", 100, at(step.sec)); err != nil {
			t.Fatal(err)
		}
	}
	want := []string{
		"a requester accept",
		"a responder reject", "b requester reject",
		"parent parent reject", "c requester accept",
	}
	if got := verdicts(log); !slices.Equal(got, want) {
		t.Fatalf("verdicts = %q, want %q", got, want)
	}
	for _, d := range log.Snapshot() {
		// Cold caches: both ages are the no-contention sentinel.
		if d.URL != "http://d/" || d.SizeBytes != 100 || d.LocalAgeMS != -1 || d.PeerAgeMS != -1 {
			t.Fatalf("decision %+v", d)
		}
	}
}

func TestDecisionLogCarriesAges(t *testing.T) {
	log := obs.NewDecisionLog(64)
	a := newProxy(t, "a", 1000, core.EA{})
	b := newProxy(t, "b", 100000, core.EA{})
	a.decisions, b.decisions = log, log
	wire(t, a, b)
	contendStore(t, a, 30, 0)
	if _, err := a.Request("http://d/", 400, at(100)); err != nil {
		t.Fatal(err)
	}
	aAge := obs.AgeMS(a.Store().ExpirationAge(at(101)))
	if aAge < 0 {
		t.Fatal("churned cache reports no contention")
	}
	if _, err := b.Request("http://d/", 400, at(101)); err != nil {
		t.Fatal(err)
	}
	all := log.Snapshot()
	got := all[len(all)-2:]
	want := []obs.Decision{
		{Time: at(101), Node: "a", URL: "http://d/", Role: obs.RoleResponder, Verdict: obs.DecisionReject, LocalAgeMS: aAge, PeerAgeMS: -1, SizeBytes: 400},
		{Time: at(101), Node: "b", URL: "http://d/", Role: obs.RoleRequester, Verdict: obs.DecisionAccept, LocalAgeMS: -1, PeerAgeMS: aAge, SizeBytes: 400},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decisions = %+v\nwant %+v", got, want)
	}
}

func TestICPCountsAndNoTouch(t *testing.T) {
	a := newProxy(t, "a", 1000, core.AdHoc{})
	b := newProxy(t, "b", 1000, core.AdHoc{})
	c := newProxy(t, "c", 1000, core.AdHoc{})
	wire(t, a, b, c)

	if _, err := a.Request("http://d/", 100, at(0)); err != nil {
		t.Fatal(err)
	}
	// a's miss queried b and c.
	if got := a.ICP().QueriesSent; got != 2 {
		t.Fatalf("a queries = %d, want 2", got)
	}
	if got := b.ICP().RepliesMiss; got != 1 {
		t.Fatalf("b miss replies = %d, want 1", got)
	}
	// b requests: ICP hit at a, miss at c.
	if _, err := b.Request("http://d/", 100, at(1)); err != nil {
		t.Fatal(err)
	}
	if got := a.ICP().RepliesHit; got != 1 {
		t.Fatalf("a hit replies = %d, want 1", got)
	}
	if got := a.ICP().RemoteServed; got != 1 {
		t.Fatalf("a remote served = %d, want 1", got)
	}
}

func TestICPDeterministicResponderOrder(t *testing.T) {
	a := newProxy(t, "a", 1000, core.AdHoc{})
	b := newProxy(t, "b", 1000, core.AdHoc{})
	c := newProxy(t, "c", 1000, core.AdHoc{})
	wire(t, a, b, c)

	// Both b and c hold the document; a must pick its first sibling (b).
	if _, err := b.Request("http://d/", 100, at(0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Request("http://d/", 100, at(1)); err != nil {
		t.Fatal(err)
	}
	res, err := a.Request("http://d/", 100, at(2))
	if err != nil {
		t.Fatal(err)
	}
	if res.Responder != "b" {
		t.Fatalf("responder = %q, want b (wiring order)", res.Responder)
	}
}

func TestOversizedDocServedNotCached(t *testing.T) {
	p := newProxy(t, "a", 100, core.AdHoc{})
	res, err := p.Request("http://huge/", 5000, at(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if res.Stored || p.Store().Len() != 0 {
		t.Fatal("oversized document cached")
	}
}

func TestHierarchyMissAdHoc(t *testing.T) {
	parent := newProxy(t, "parent", 10000, core.AdHoc{})
	child := newProxy(t, "child", 10000, core.AdHoc{})
	if err := child.SetParent(parent); err != nil {
		t.Fatal(err)
	}

	res, err := child.Request("http://d/", 100, at(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss {
		t.Fatalf("outcome = %v, want miss (origin through parent)", res.Outcome)
	}
	// Ad-hoc: both parent and child store.
	if !parent.Store().Contains("http://d/") || !child.Store().Contains("http://d/") {
		t.Fatal("ad-hoc hierarchy did not store at both levels")
	}
}

func TestHierarchyMissEAColdTieStoresAtChild(t *testing.T) {
	parent := newProxy(t, "parent", 10000, core.EA{})
	child := newProxy(t, "child", 10000, core.EA{})
	if err := child.SetParent(parent); err != nil {
		t.Fatal(err)
	}

	res, err := child.Request("http://d/", 100, at(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Cold tie: exactly the child stores (OnMissViaParent >=), the
	// parent does not (OnParentResolve strict).
	if parent.Store().Contains("http://d/") {
		t.Fatal("parent stored on cold tie")
	}
	if !child.Store().Contains("http://d/") {
		t.Fatal("nobody stored the fetched document")
	}
}

func TestHierarchyParentHitViaICP(t *testing.T) {
	parent := newProxy(t, "parent", 10000, core.AdHoc{})
	childA := newProxy(t, "a", 10000, core.AdHoc{})
	childB := newProxy(t, "b", 10000, core.AdHoc{})
	wire(t, childA, childB)
	for _, c := range []*Proxy{childA, childB} {
		if err := c.SetParent(parent); err != nil {
			t.Fatal(err)
		}
	}

	// Seed the parent directly.
	if _, err := parent.Store().Put(cache.Document{URL: "http://d/", Size: 100}, at(0)); err != nil {
		t.Fatal(err)
	}
	res, err := childA.Request("http://d/", 100, at(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit || res.Responder != "parent" {
		t.Fatalf("res = %+v, want remote hit from parent", res)
	}
}

func TestThreeLevelHierarchyResolution(t *testing.T) {
	root := newProxy(t, "root", 10000, core.AdHoc{})
	mid := newProxy(t, "mid", 10000, core.AdHoc{})
	leaf := newProxy(t, "leaf", 10000, core.AdHoc{})
	if err := mid.SetParent(root); err != nil {
		t.Fatal(err)
	}
	if err := leaf.SetParent(mid); err != nil {
		t.Fatal(err)
	}

	res, err := leaf.Request("http://d/", 100, at(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.Miss {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	// Ad-hoc stores at every level on the way down.
	for _, p := range []*Proxy{root, mid, leaf} {
		if !p.Store().Contains("http://d/") {
			t.Fatalf("%s did not store", p.ID())
		}
	}

	// A second leaf under root resolves via its own chain and counts the
	// root's copy as a group hit.
	leaf2 := newProxy(t, "leaf2", 10000, core.AdHoc{})
	if err := leaf2.SetParent(root); err != nil {
		t.Fatal(err)
	}
	res, err = leaf2.Request("http://d/", 100, at(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Outcome != metrics.RemoteHit {
		t.Fatalf("outcome = %v, want remote hit (root had it)", res.Outcome)
	}
}

type failingOrigin struct{}

func (failingOrigin) Fetch(string, int64, time.Time) (cache.Document, error) {
	return cache.Document{}, errors.New("origin down")
}

func TestOriginErrorPropagates(t *testing.T) {
	store, err := cache.New(cache.Config{Capacity: 100})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(Config{ID: "a", Store: store, Scheme: core.AdHoc{}, Origin: failingOrigin{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Request("http://d/", 10, at(0)); err == nil {
		t.Fatal("origin error swallowed")
	}
}
