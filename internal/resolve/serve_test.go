package resolve

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/race"
)

// TestServe walks every path of the responder's half. The node's age is
// 60s throughout; a requester aged 10s is under more pressure (EA
// promotes, the parent keeps), one aged 2m under less.
func TestServe(t *testing.T) {
	const age = time.Minute
	const url = "http://a/"
	broke := errors.New("parent broke")
	for _, tc := range []struct {
		name string
		tr   *fakeTransport
		ask  Ask
		held bool // the node holds url (6 bytes)
		// want is the answer, err the upstream error it carries.
		want Served
		err  error
		// promotes, kept and lookups are the Holder/Store calls made;
		// upstream the Transport's upstream fetches.
		promotes int
		kept     bool
		lookups  int
		upstream []string
	}{
		{
			name:     "hit promotes",
			tr:       &fakeTransport{},
			ask:      Ask{URL: url, ReqAge: 10 * time.Second},
			held:     true,
			want:     Served{Doc: cache.Document{URL: url, Size: 6}, Found: true, Age: age, FromGroup: true},
			promotes: 1,
		},
		{
			name: "hit rejects",
			tr:   &fakeTransport{},
			ask:  Ask{URL: url, ReqAge: 2 * time.Minute},
			held: true,
			want: Served{Doc: cache.Document{URL: url, Size: 6}, Found: true, Age: age, FromGroup: true},
		},
		{
			name:    "hash home hit is a real hit",
			tr:      &fakeTransport{},
			ask:     Ask{URL: url, ReqAge: 10 * time.Second, Resolve: true, Home: true, Keep: PlacementAlways},
			held:    true,
			want:    Served{Doc: cache.Document{URL: url, Size: 6}, Found: true, Age: age, FromGroup: true},
			lookups: 1,
		},
		{
			name: "miss not asked to resolve",
			tr:   &fakeTransport{parentID: "up"},
			ask:  Ask{URL: url, ReqAge: 10 * time.Second},
			want: Served{Age: age},
		},
		{
			name:     "resolve via parent, body from the group",
			tr:       &fakeTransport{parentID: "up", parent: Remote{Doc: cache.Document{Size: 4}, ResponderAge: time.Hour, FromGroup: true}},
			ask:      Ask{URL: url, SizeHint: 4, ReqAge: 10 * time.Second, Resolve: true},
			want:     Served{Doc: cache.Document{URL: url, Size: 4}, Found: true, Age: age, Resolved: true, FromGroup: true, Kept: true},
			kept:     true,
			upstream: []string{"parent"},
		},
		{
			name:     "resolve via parent, body from the origin",
			tr:       &fakeTransport{parentID: "up", parent: Remote{Doc: cache.Document{Size: 4}}},
			ask:      Ask{URL: url, SizeHint: 4, ReqAge: 2 * time.Minute, Resolve: true},
			want:     Served{Doc: cache.Document{URL: url, Size: 4}, Found: true, Age: age, Resolved: true},
			upstream: []string{"parent"},
		},
		{
			name:     "resolve via the origin",
			tr:       &fakeTransport{},
			ask:      Ask{URL: url, SizeHint: 4, ReqAge: 10 * time.Second, Resolve: true},
			want:     Served{Doc: cache.Document{URL: url, Size: 4}, Found: true, Age: age, Resolved: true, Kept: true},
			kept:     true,
			upstream: []string{"origin"},
		},
		{
			name:     "structural never overrides the parent rule",
			tr:       &fakeTransport{},
			ask:      Ask{URL: url, SizeHint: 4, ReqAge: 10 * time.Second, Resolve: true, Keep: PlacementNever},
			want:     Served{Doc: cache.Document{URL: url, Size: 4}, Found: true, Age: age, Resolved: true},
			upstream: []string{"origin"},
		},
		{
			name:     "structural always overrides the parent rule",
			tr:       &fakeTransport{},
			ask:      Ask{URL: url, SizeHint: 4, ReqAge: 2 * time.Minute, Resolve: true, Home: true, Keep: PlacementAlways},
			want:     Served{Doc: cache.Document{URL: url, Size: 4}, Found: true, Age: age, Resolved: true, Kept: true},
			kept:     true,
			lookups:  1,
			upstream: []string{"origin"},
		},
		{
			// A responder never degrades: the requester decides where
			// to go next.
			name:     "upstream error",
			tr:       &fakeTransport{parentID: "up", parentErr: broke},
			ask:      Ask{URL: url, SizeHint: 4, ReqAge: 10 * time.Second, Resolve: true},
			want:     Served{Age: age},
			err:      broke,
			upstream: []string{"parent"},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store := newFakeStore(age)
			if tc.held {
				store.docs[url] = cache.Document{URL: url, Size: 6}
			}
			e := newEngine(store, tc.tr, Located{}, nil)
			e.DegradeToOrigin = true // a requester's posture; Serve ignores it
			got, err := e.Serve(nil, store, tc.ask, at(0))
			if !errors.Is(err, tc.err) || (err == nil) != (tc.err == nil) {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if got != tc.want {
				t.Fatalf("served %+v, want %+v", got, tc.want)
			}
			if store.promotes != tc.promotes || store.lookups != tc.lookups {
				t.Errorf("promotes %d lookups %d, want %d and %d", store.promotes, store.lookups, tc.promotes, tc.lookups)
			}
			if _, ok := store.docs[url]; ok != (tc.held || tc.kept) {
				t.Errorf("resident after serve = %v, want %v", ok, tc.held || tc.kept)
			}
			if !reflect.DeepEqual(tc.tr.upstream, tc.upstream) {
				t.Errorf("upstream fetches %v, want %v", tc.tr.upstream, tc.upstream)
			}
			// The node's own age rides upstream.
			for _, a := range tc.tr.upAges {
				if a != age {
					t.Errorf("upstream fetch carried age %v, want the node's %v", a, age)
				}
			}
		})
	}
}

// TestServeHitAllocatesNothing: every remote hit's responder runs through
// Serve, so a hit with no hooks must cost the engine nothing.
func TestServeHitAllocatesNothing(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	store := newFakeStore(time.Minute)
	store.docs["http://a/"] = cache.Document{URL: "http://a/", Size: 6}
	e := &Engine{ID: "test alloc", Store: store, Scheme: core.EA{}, Transport: &fakeTransport{}}
	ask := Ask{URL: "http://a/", ReqAge: time.Second}
	serve := func() {
		if s, err := e.Serve(nil, store, ask, at(0)); err != nil || !s.Found {
			t.Fatalf("served %+v, %v", s, err)
		}
	}
	if allocs := testing.AllocsPerRun(1000, serve); allocs != 0 {
		t.Errorf("Serve of a hit: %.2f allocs, want 0", allocs)
	}
}
