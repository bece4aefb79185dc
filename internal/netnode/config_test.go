package netnode

import (
	"testing"
	"time"

	"eacache/internal/digest"
	"eacache/internal/obs"
	"eacache/internal/resolve"
)

// TestDerivedTimings pins each rule that derives a timing knob instead of
// taking a flag: EjectAfter = 2 × FetchTimeout, ReadmitProbe =
// DialTimeout / 4, Drain's in-flight deadline = FetchTimeout, and the
// trace ring = 64 × the trace sampling. The defaults reproduce proxyd's
// former flag defaults (10s, 500ms, 5s, 512); test-sized timeouts scale
// the derived values down with them. The knobs that are constants now
// keep those defaults too: a digest node's change log of DefaultDeltaWindow,
// the 100ms shed wait and the 30s checkpoint period.
func TestDerivedTimings(t *testing.T) {
	cases := []struct {
		name               string
		dial, fetch        time.Duration
		eject, probe, wait time.Duration
	}{
		{"defaults", 0, 0, 10 * time.Second, 500 * time.Millisecond, 5 * time.Second},
		{"test-sized dial", 100 * time.Millisecond, 0, 10 * time.Second, 25 * time.Millisecond, 5 * time.Second},
		{"test-sized fetch", 0, 250 * time.Millisecond, 500 * time.Millisecond, 500 * time.Millisecond, 250 * time.Millisecond},
		{"both", 40 * time.Millisecond, 60 * time.Millisecond, 120 * time.Millisecond, 10 * time.Millisecond, 60 * time.Millisecond},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := startChaosNode(t, Config{ID: "d", DialTimeout: tc.dial, FetchTimeout: tc.fetch})
			// Drain passes cfg.FetchTimeout as its in-flight deadline.
			if n.cfg.EjectAfter != tc.eject || n.cfg.ReadmitProbe != tc.probe || n.cfg.FetchTimeout != tc.wait {
				t.Errorf("eject/probe/drain = %v/%v/%v, want %v/%v/%v",
					n.cfg.EjectAfter, n.cfg.ReadmitProbe, n.cfg.FetchTimeout, tc.eject, tc.probe, tc.wait)
			}
		})
	}
	// An explicit value wins over its rule.
	n := startChaosNode(t, Config{ID: "e", EjectAfter: time.Minute, ReadmitProbe: time.Second})
	if n.cfg.EjectAfter != time.Minute || n.cfg.ReadmitProbe != time.Second {
		t.Errorf("explicit eject/probe = %v/%v, want 1m0s/1s", n.cfg.EjectAfter, n.cfg.ReadmitProbe)
	}

	dn := startChaosNode(t, Config{ID: "g", Location: resolve.LocateDigest})
	if got := dn.DigestReport().Window; got != digest.DefaultDeltaWindow {
		t.Errorf("own digest window = %d, want digest.DefaultDeltaWindow (%d)", got, digest.DefaultDeltaWindow)
	}
	if DefaultShedQueueWait != 100*time.Millisecond || DefaultSnapshotInterval != 30*time.Second {
		t.Errorf("shed wait/snapshot period = %v/%v, want 100ms/30s", DefaultShedQueueWait, DefaultSnapshotInterval)
	}

	if 64*obs.DefaultTraceSampling != obs.DefaultTraceCapacity || obs.DefaultTraceCapacity != 512 {
		t.Errorf("DefaultTraceCapacity = %d, want 64 × DefaultTraceSampling (%d) = 512", obs.DefaultTraceCapacity, obs.DefaultTraceSampling)
	}
	for sampling, want := range map[int]int{obs.DefaultTraceSampling: 512, 1: 64, 0: 64, 100: 6400} {
		if got := obs.TraceCapacity(sampling); got != want {
			t.Errorf("TraceCapacity(%d) = %d, want %d", sampling, got, want)
		}
	}
}
