package resolve

import (
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/chash"
	"eacache/internal/core"
	"eacache/internal/metrics"
)

func at(sec int) time.Time {
	return time.Date(1994, time.November, 15, 9, 0, sec, 0, time.UTC)
}

// fakeStore is a LocalStore over a plain map with a fixed expiration age.
type fakeStore struct {
	docs    map[string]cache.Document
	age     time.Duration
	tooBig  int64 // docs at least this large are rejected by StoreCopy
	lookups int
	// promotes counts Holder.Promote calls.
	promotes int
}

func newFakeStore(age time.Duration) *fakeStore {
	return &fakeStore{docs: map[string]cache.Document{}, age: age, tooBig: 1 << 40}
}

func (s *fakeStore) Lookup(_ any, url string, _ time.Time) (cache.Document, bool) {
	s.lookups++
	doc, ok := s.docs[url]
	return doc, ok
}

func (s *fakeStore) ExpirationAge(time.Time) time.Duration { return s.age }

func (s *fakeStore) StoreCopy(doc cache.Document, _ time.Time) bool {
	if doc.Size >= s.tooBig {
		return false
	}
	s.docs[doc.URL] = doc
	return true
}

// fakeStore is also a responder's Holder.
func (s *fakeStore) Peek(url string, _ time.Time) (cache.Document, bool) {
	doc, ok := s.docs[url]
	return doc, ok
}

func (s *fakeStore) Promote(string, time.Time) { s.promotes++ }

func (s *fakeStore) Keep(doc cache.Document, now time.Time) bool { return s.StoreCopy(doc, now) }

// scripted answers for one candidate ID.
type answer struct {
	rem    Remote
	status FetchStatus
}

type fakeTransport struct {
	answers   map[string]answer
	parentID  string
	parent    Remote
	parentErr error
	originErr error
	fetched   []string // candidate IDs tried, in order
	resolves  []bool   // the resolve flag of each FetchRemote
	// upstream lists "parent" or "origin" for each upstream fetch, and
	// upAges the requester age each one carried.
	upstream []string
	upAges   []time.Duration
}

func (t *fakeTransport) FetchRemote(_ any, c Candidate, url string, _ int64, _ time.Duration, resolve bool, _ time.Time) (Remote, FetchStatus) {
	t.fetched = append(t.fetched, c.ID)
	t.resolves = append(t.resolves, resolve)
	a, ok := t.answers[c.ID]
	if !ok {
		return Remote{}, FetchFailed
	}
	if a.rem.Doc.URL == "" {
		a.rem.Doc.URL = url
	}
	return a.rem, a.status
}

func (t *fakeTransport) ParentID() (string, bool) { return t.parentID, t.parentID != "" }

func (t *fakeTransport) FetchParent(_ any, url string, _ int64, reqAge time.Duration, _ time.Time) (Remote, error) {
	t.upstream, t.upAges = append(t.upstream, "parent"), append(t.upAges, reqAge)
	if t.parentErr != nil {
		return Remote{}, t.parentErr
	}
	rem := t.parent
	if rem.Doc.URL == "" {
		rem.Doc.URL = url
	}
	return rem, nil
}

func (t *fakeTransport) FetchOrigin(_ any, url string, sizeHint int64, reqAge time.Duration, _ time.Time) (cache.Document, error) {
	t.upstream, t.upAges = append(t.upstream, "origin"), append(t.upAges, reqAge)
	if t.originErr != nil {
		return cache.Document{}, t.originErr
	}
	return cache.Document{URL: url, Size: sizeHint}, nil
}

// placed is one OnPlacement call.
type placed struct {
	role              Role
	url               string
	size              int64
	localAge, peerAge time.Duration
	verdict           bool
}

// spyHooks records every hook invocation.
type spyHooks struct {
	placements                   []placed
	retries, falseHits, fallback int
	degrades                     []error // the non-nil errs passed to OnFallback
}

func (h *spyHooks) OnPlacement(_ any, role Role, url string, size int64, localAge, peerAge time.Duration, verdict bool, _ time.Time) {
	h.placements = append(h.placements, placed{role, url, size, localAge, peerAge, verdict})
}
func (h *spyHooks) OnFalseHit(any, Candidate, string) { h.falseHits++ }
func (h *spyHooks) OnRetry(any)                       { h.retries++ }
func (h *spyHooks) OnFallback(_ any, _ string, err error) {
	if err != nil {
		h.degrades = append(h.degrades, err)
		return
	}
	h.fallback++
}

type fixedLocator struct{ loc Located }

func (l fixedLocator) Locate(any, string, time.Time) Located { return l.loc }

func newEngine(store *fakeStore, tr *fakeTransport, loc Located, hooks Hooks) *Engine {
	return &Engine{
		ID:        "test n0",
		Store:     store,
		Scheme:    core.EA{},
		Locator:   fixedLocator{loc},
		Transport: tr,
		Hooks:     hooks,
	}
}

func TestEmptyURL(t *testing.T) {
	e := newEngine(newFakeStore(0), &fakeTransport{}, Located{}, nil)
	if _, err := e.Resolve(nil, "", 1, at(0)); err == nil {
		t.Fatal("empty URL accepted")
	}
}

func TestLocalHit(t *testing.T) {
	store := newFakeStore(0)
	store.docs["http://a/"] = cache.Document{URL: "http://a/", Size: 7}
	hooks := &spyHooks{}
	e := newEngine(store, &fakeTransport{}, Located{}, hooks)
	res, err := e.Resolve(nil, "http://a/", 7, at(0))
	if err != nil || res.Outcome != metrics.LocalHit || res.Doc.Size != 7 {
		t.Fatalf("res=%+v err=%v, want local hit", res, err)
	}
	if len(hooks.placements) != 0 {
		t.Fatalf("a local hit placed: %+v", hooks.placements)
	}
}

func TestRemoteHitStoresUnderEA(t *testing.T) {
	// Requester age 60s > responder age 10s: EA stores at requester.
	store := newFakeStore(time.Minute)
	tr := &fakeTransport{answers: map[string]answer{
		"peer-1": {rem: Remote{Doc: cache.Document{Size: 5}, ResponderAge: 10 * time.Second, FromGroup: true}, status: FetchOK},
	}}
	hooks := &spyHooks{}
	e := newEngine(store, tr, Located{Candidates: []Candidate{{ID: "peer-1"}}}, hooks)
	res, err := e.Resolve(nil, "http://a/", 5, at(0))
	if err != nil || res.Outcome != metrics.RemoteHit || res.Responder != "peer-1" {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	// EA with reqAge < respAge stores at requester, does not promote.
	if !res.Stored || res.Promoted {
		t.Fatalf("placement = stored=%v promoted=%v", res.Stored, res.Promoted)
	}
	if _, ok := store.docs["http://a/"]; !ok {
		t.Fatal("copy not stored")
	}
	if len(hooks.placements) != 1 || hooks.retries != 0 {
		t.Fatalf("hooks=%+v", hooks)
	}
}

func TestRetryAcrossCandidatesThenFallback(t *testing.T) {
	store := newFakeStore(0)
	tr := &fakeTransport{answers: map[string]answer{
		"dead-1": {status: FetchFailed},
		"dead-2": {status: FetchFailed},
	}}
	hooks := &spyHooks{}
	e := newEngine(store, tr, Located{Candidates: []Candidate{{ID: "dead-1"}, {ID: "dead-2"}}}, hooks)
	res, err := e.Resolve(nil, "http://a/", 9, at(0))
	if err != nil || res.Outcome != metrics.Miss {
		t.Fatalf("res=%+v err=%v, want origin miss", res, err)
	}
	if hooks.retries != 1 || hooks.fallback != 1 || len(hooks.placements) != 1 {
		t.Fatalf("hooks=%+v", hooks)
	}
	if len(tr.fetched) != 2 {
		t.Fatalf("fetched=%v", tr.fetched)
	}
}

func TestFalseHitContinues(t *testing.T) {
	store := newFakeStore(0)
	tr := &fakeTransport{answers: map[string]answer{
		"liar": {status: FetchNotFound},
		"real": {rem: Remote{Doc: cache.Document{Size: 3}, ResponderAge: time.Hour, FromGroup: true}, status: FetchOK},
	}}
	hooks := &spyHooks{}
	e := newEngine(store, tr, Located{Candidates: []Candidate{{ID: "liar"}, {ID: "real"}}}, hooks)
	res, err := e.Resolve(nil, "http://a/", 3, at(0))
	if err != nil || res.Outcome != metrics.RemoteHit || res.Responder != "real" {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	// A not-found answer is not a fault: no fallback.
	if hooks.falseHits != 1 || hooks.fallback != 0 || hooks.retries != 1 {
		t.Fatalf("hooks=%+v", hooks)
	}
}

func TestParentFromGroupIsRemoteHit(t *testing.T) {
	store := newFakeStore(time.Minute)
	tr := &fakeTransport{
		parentID: "parent-0",
		parent:   Remote{Doc: cache.Document{Size: 4}, ResponderAge: 10 * time.Second, FromGroup: true},
	}
	hooks := &spyHooks{}
	e := newEngine(store, tr, Located{}, hooks)
	res, err := e.Resolve(nil, "http://a/", 4, at(0))
	if err != nil || res.Outcome != metrics.RemoteHit || res.Responder != "parent-0" || !res.Stored {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if len(hooks.placements) != 1 {
		t.Fatalf("hooks=%+v", hooks)
	}
}

func TestParentErrorFailsWithoutDegrade(t *testing.T) {
	wantErr := errors.New("parent broke")
	tr := &fakeTransport{parentID: "parent-0", parentErr: wantErr}
	e := newEngine(newFakeStore(0), tr, Located{}, nil)
	if _, err := e.Resolve(nil, "http://a/", 1, at(0)); !errors.Is(err, wantErr) {
		t.Fatalf("err=%v, want the parent error", err)
	}
}

func TestParentErrorDegradesToOrigin(t *testing.T) {
	tr := &fakeTransport{parentID: "parent-0", parentErr: errors.New("parent broke")}
	hooks := &spyHooks{}
	e := newEngine(newFakeStore(0), tr, Located{}, hooks)
	e.DegradeToOrigin = true
	res, err := e.Resolve(nil, "http://a/", 1, at(0))
	if err != nil || res.Outcome != metrics.Miss {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if len(hooks.degrades) != 1 || hooks.fallback != 0 || len(hooks.placements) != 1 {
		t.Fatalf("hooks=%+v", hooks)
	}
}

// TestNoOriginError: whether an origin exists is the transport's
// business; the engine returns its FetchOrigin error verbatim and
// records no verdict.
func TestNoOriginError(t *testing.T) {
	wantErr := errors.New("test n0: miss for http://a/ and no origin")
	hooks := &spyHooks{}
	e := newEngine(newFakeStore(0), &fakeTransport{originErr: wantErr}, Located{}, hooks)
	if _, err := e.Resolve(nil, "http://a/", 1, at(0)); !errors.Is(err, wantErr) {
		t.Fatalf("err=%v, want the transport's", err)
	}
	if len(hooks.placements) != 0 {
		t.Fatalf("a failed fetch placed: %+v", hooks.placements)
	}
}

func TestPlacementNeverSuppressesStores(t *testing.T) {
	// A home-resolved body (FromGroup=false) counts as a miss and the
	// requester keeps nothing, on either path.
	store := newFakeStore(time.Hour) // huge age: EA would store everywhere
	tr := &fakeTransport{answers: map[string]answer{
		"home": {rem: Remote{Doc: cache.Document{Size: 2}, FromGroup: false}, status: FetchOK},
	}}
	loc := Located{Candidates: []Candidate{{ID: "home"}}, Resolve: true, Placement: PlacementNever}
	e := newEngine(store, tr, loc, nil)
	res, err := e.Resolve(nil, "http://a/", 2, at(0))
	if err != nil || res.Outcome != metrics.Miss || res.Stored {
		t.Fatalf("res=%+v err=%v, want unstored miss via home", res, err)
	}
	if !tr.resolves[0] {
		t.Fatal("resolve flag not forwarded")
	}
	if len(store.docs) != 0 {
		t.Fatal("requester stored a copy under PlacementNever")
	}

	// Same home serving from its cache: a remote hit, still unstored.
	tr.answers["home"] = answer{rem: Remote{Doc: cache.Document{Size: 2}, FromGroup: true}, status: FetchOK}
	res, err = e.Resolve(nil, "http://a/", 2, at(1))
	if err != nil || res.Outcome != metrics.RemoteHit || res.Stored {
		t.Fatalf("res=%+v err=%v, want unstored remote hit", res, err)
	}
}

// TestOnPlacementOncePerVerdict: every verdict of every role leaves the
// engine through exactly one OnPlacement, on every path, with its role,
// the deciding node's own age and the peer age the rule saw (TestLocalHit
// holds a local hit to none). The node's age is 60s throughout, so a 60s
// parent age tells the remote-hit rule (strict, reject) from the
// miss-via-parent rule (tie keeps, accept). A case with serve set runs
// the responder's half instead, for a requester aged serve.ReqAge.
func TestOnPlacementOncePerVerdict(t *testing.T) {
	const reqAge = time.Minute
	broke := errors.New("parent broke")
	peer := func(age time.Duration, fromGroup bool) map[string]answer {
		return map[string]answer{"p": {rem: Remote{Doc: cache.Document{Size: 5}, ResponderAge: age, FromGroup: fromGroup}, status: FetchOK}}
	}
	for _, tc := range []struct {
		name    string
		tr      *fakeTransport
		loc     Located
		degrade bool
		serve   *Ask
		held    bool // the node holds http://a/ (6 bytes)
		want    []placed
	}{
		{
			name:  "responder promotes",
			tr:    &fakeTransport{},
			serve: &Ask{URL: "http://a/", ReqAge: 10 * time.Second},
			held:  true,
			want:  []placed{{RoleResponder, "http://a/", 6, reqAge, 10 * time.Second, true}},
		},
		{
			name:  "responder rejects",
			tr:    &fakeTransport{},
			serve: &Ask{URL: "http://a/", ReqAge: 2 * time.Minute},
			held:  true,
			want:  []placed{{RoleResponder, "http://a/", 6, reqAge, 2 * time.Minute, false}},
		},
		{
			name:  "parent keeps",
			tr:    &fakeTransport{parentID: "up", parent: Remote{Doc: cache.Document{Size: 4}}},
			serve: &Ask{URL: "http://a/", SizeHint: 4, ReqAge: 10 * time.Second, Resolve: true},
			want:  []placed{{RoleParent, "http://a/", 4, reqAge, 10 * time.Second, true}},
		},
		{
			name:  "parent rejects",
			tr:    &fakeTransport{},
			serve: &Ask{URL: "http://a/", SizeHint: 4, ReqAge: reqAge, Resolve: true},
			want:  []placed{{RoleParent, "http://a/", 4, reqAge, reqAge, false}},
		},
		{
			name:  "home hit places nothing",
			tr:    &fakeTransport{},
			serve: &Ask{URL: "http://a/", ReqAge: 10 * time.Second, Resolve: true, Home: true, Keep: PlacementAlways},
			held:  true,
		},
		{
			name: "remote hit",
			tr:   &fakeTransport{answers: peer(10*time.Second, true)},
			loc:  Located{Candidates: []Candidate{{ID: "p"}}},
			want: []placed{{RoleRequester, "http://a/", 5, reqAge, 10 * time.Second, true}},
		},
		{
			name: "PlacementNever remote",
			tr:   &fakeTransport{answers: peer(10*time.Second, false)},
			loc:  Located{Candidates: []Candidate{{ID: "p"}}, Resolve: true, Placement: PlacementNever},
			want: []placed{{RoleRequester, "http://a/", 5, reqAge, 10 * time.Second, false}},
		},
		{
			name: "parent from group",
			tr:   &fakeTransport{parentID: "parent", parent: Remote{Doc: cache.Document{Size: 4}, ResponderAge: reqAge, FromGroup: true}},
			want: []placed{{RoleRequester, "http://a/", 4, reqAge, reqAge, false}},
		},
		{
			name: "parent from origin",
			tr:   &fakeTransport{parentID: "parent", parent: Remote{Doc: cache.Document{Size: 4}, ResponderAge: reqAge}},
			want: []placed{{RoleRequester, "http://a/", 4, reqAge, reqAge, true}},
		},
		{
			name: "origin",
			tr:   &fakeTransport{},
			want: []placed{{RoleRequester, "http://a/", 3, reqAge, cache.NoContention, true}},
		},
		{
			name:    "failed parent degraded to origin",
			tr:      &fakeTransport{parentID: "parent", parentErr: broke},
			degrade: true,
			want:    []placed{{RoleRequester, "http://a/", 3, reqAge, cache.NoContention, true}},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hooks := &spyHooks{}
			store := newFakeStore(reqAge)
			if tc.held {
				store.docs["http://a/"] = cache.Document{URL: "http://a/", Size: 6}
			}
			e := newEngine(store, tc.tr, tc.loc, hooks)
			e.DegradeToOrigin = tc.degrade
			var err error
			if tc.serve != nil {
				_, err = e.Serve(nil, store, *tc.serve, at(0))
			} else {
				_, err = e.Resolve(nil, "http://a/", 3, at(0))
			}
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hooks.placements, tc.want) {
				t.Fatalf("placements = %+v, want %+v", hooks.placements, tc.want)
			}
			if tc.degrade && (len(hooks.degrades) != 1 || !errors.Is(hooks.degrades[0], broke)) {
				t.Fatalf("OnFallback errs = %v, want the parent's", hooks.degrades)
			}
		})
	}
}

// placeCounter counts OnPlacement calls from many goroutines.
type placeCounter struct {
	nopHooks
	n atomic.Int32
}

func (h *placeCounter) OnPlacement(any, Role, string, int64, time.Duration, time.Duration, bool, time.Time) {
	h.n.Add(1)
}

// TestCoalescedFollowersPlaceNothing: a herd of concurrent misses for one
// URL makes one verdict, the leader's; the followers share it.
func TestCoalescedFollowersPlaceNothing(t *testing.T) {
	const herd = 16
	gate := make(chan struct{})
	tr := &herdTransport{gates: []chan struct{}{gate}}
	e, followers, _, _ := herdEngine(tr)
	hooks := &placeCounter{}
	e.Hooks = hooks
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.Resolve(nil, "http://hot/doc", 4096, at(0)); err != nil {
				t.Error(err)
			}
		}()
	}
	waitFor(t, func() bool { return followers.Load() == herd-1 })
	close(gate)
	wg.Wait()
	if got := hooks.n.Load(); got != 1 {
		t.Fatalf("OnPlacement fired %d times for one coalesced miss, want 1", got)
	}
}

// refuseAll is a Scheme that never stores anywhere, to prove
// PlacementAlways overrides the scheme verdict.
type refuseAll struct{}

func (refuseAll) Name() string                                 { return "refuse" }
func (refuseAll) OnRemoteHit(_, _ time.Duration) core.Decision { return core.Decision{} }
func (refuseAll) OnOriginFetch(time.Duration) bool             { return false }
func (refuseAll) OnParentResolve(_, _ time.Duration) bool      { return false }
func (refuseAll) OnMissViaParent(_, _ time.Duration) bool      { return false }

func TestPlacementAlwaysStoresOnOriginMiss(t *testing.T) {
	store := newFakeStore(0)
	e := &Engine{
		ID: "test n0", Store: store, Scheme: refuseAll{},
		Locator:   fixedLocator{Located{Placement: PlacementAlways}},
		Transport: &fakeTransport{},
	}
	res, err := e.Resolve(nil, "http://a/", 6, at(0))
	if err != nil || res.Outcome != metrics.Miss || !res.Stored {
		t.Fatalf("res=%+v err=%v, want stored miss", res, err)
	}
}

func TestNilLocatorGoesStraightToOrigin(t *testing.T) {
	e := &Engine{ID: "t", Store: newFakeStore(0), Scheme: core.EA{}, Transport: &fakeTransport{}}
	res, err := e.Resolve(nil, "http://a/", 1, at(0))
	if err != nil || res.Outcome != metrics.Miss {
		t.Fatalf("res=%+v err=%v", res, err)
	}
}

func ringOf(t *testing.T, members ...string) *chash.Ring {
	t.Helper()
	r, err := chash.New(0, members...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestHashLocatorRoutesToHome(t *testing.T) {
	members := []string{"n0", "n1", "n2", "n3"}
	ring := ringOf(t, members...)
	// From every non-home node, the first candidate must be the ring
	// owner and the rest the ownership chain up to (excluding) self;
	// from the home node itself, placement must be Always.
	for _, url := range []string{"http://a/", "http://b/", "http://c/x", "http://d/y"} {
		home := ring.Owner(url)
		chain := ring.Owners(url, ring.Len())
		for _, self := range members {
			h := &HashLocator{Ring: ring, Self: self, Candidate: func(m string) (Candidate, bool) {
				return Candidate{ID: m}, true
			}}
			loc := h.Locate(nil, url, at(0))
			if self == home {
				if loc.Placement != PlacementAlways || len(loc.Candidates) != 0 {
					t.Fatalf("home %s for %s: loc=%+v", self, url, loc)
				}
				continue
			}
			if len(loc.Candidates) == 0 || loc.Candidates[0].ID != home {
				t.Fatalf("%s for %s: candidates=%+v, want home %s first", self, url, loc.Candidates, home)
			}
			for i, c := range loc.Candidates {
				if c.ID != chain[i] {
					t.Fatalf("%s for %s: candidate[%d]=%s, want chain %v", self, url, i, c.ID, chain)
				}
			}
			if !loc.Resolve || loc.Placement != PlacementNever {
				t.Fatalf("loc=%+v, want resolve+never", loc)
			}
		}
	}
}

func TestHashLocatorSkipsDeadHome(t *testing.T) {
	ring := ringOf(t, "n0", "n1", "n2", "n3")
	url := "http://a/"
	home := ring.Owner(url)
	chain := ring.Owners(url, ring.Len())
	next := chain[1]

	var self string // pick a self that is neither home nor next
	for _, m := range []string{"n0", "n1", "n2", "n3"} {
		if m != home && m != next {
			self = m
			break
		}
	}
	h := &HashLocator{Ring: ring, Self: self, Candidate: func(m string) (Candidate, bool) {
		if m == home {
			return Candidate{}, false // breaker open
		}
		return Candidate{ID: m}, true
	}}
	loc := h.Locate(nil, url, at(0))
	// The chain walks past the dead home; depending on where self sits
	// it either finds live remote owners or becomes the acting home.
	if loc.Placement == PlacementAlways {
		t.Fatalf("self %s became home with %s alive in the chain %v", self, next, chain)
	}
	if len(loc.Candidates) == 0 || loc.Candidates[0].ID != next {
		t.Fatalf("candidates=%+v, want next-alive %s (chain %v)", loc.Candidates, next, chain)
	}
}

func TestHashLocatorActsAsHomeWhenAllOwnersDead(t *testing.T) {
	ring := ringOf(t, "n0", "n1")
	url := "http://a/"
	self := "n0"
	if ring.Owner(url) == self {
		self = "n1"
	}
	h := &HashLocator{Ring: ring, Self: self, Candidate: func(string) (Candidate, bool) {
		return Candidate{}, false // everyone else dead
	}}
	loc := h.Locate(nil, url, at(0))
	if loc.Placement != PlacementAlways {
		t.Fatalf("loc=%+v, want acting-home placement", loc)
	}
}

func TestHashLocatorNilRing(t *testing.T) {
	var h *HashLocator
	if loc := h.Locate(nil, "http://a/", at(0)); loc.Placement != PlacementAlways {
		t.Fatalf("loc=%+v", loc)
	}
}

func TestLocationStringAndParse(t *testing.T) {
	for _, tc := range []struct {
		loc  Location
		name string
	}{{LocateICP, "icp"}, {LocateDigest, "digest"}, {LocateHash, "hash"}} {
		if tc.loc.String() != tc.name {
			t.Fatalf("%d.String()=%q", tc.loc, tc.loc.String())
		}
		got, err := ParseLocation(tc.name)
		if err != nil || got != tc.loc {
			t.Fatalf("ParseLocation(%q)=%v,%v", tc.name, got, err)
		}
	}
	if Location(9).String() != "location(9)" {
		t.Fatal("unknown location string")
	}
	if _, err := ParseLocation("carp"); err == nil {
		t.Fatal("bad name parsed")
	}
}
