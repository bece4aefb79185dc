package sim

import (
	"testing"

	"eacache/internal/core"
	"eacache/internal/metrics"
	"eacache/internal/race"
	"eacache/internal/trace"
)

// goldenTrace is the scaled BU-like trace, prepared the way the paper
// prepares its logs.
func goldenTrace(t *testing.T) []trace.Record {
	t.Helper()
	records, err := trace.Generate(trace.BULike().Scaled(0.05))
	if err != nil {
		t.Fatal(err)
	}
	records = trace.CleanZeroSizes(records, trace.DefaultDocSize)
	trace.SortByTime(records)
	return records
}

// TestRunGolden pins every group counter of a replay to literals captured
// before the replay pipeline pooled its flights and store entries: one
// placement decision, eviction or routing choice that differs moves a
// counter.
func TestRunGolden(t *testing.T) {
	records := goldenTrace(t)
	for _, tc := range []struct {
		scheme    core.Scheme
		aggregate int64
		want      metrics.CountersSnapshot
	}{
		{core.EA{}, 256 << 10, metrics.CountersSnapshot{Requests: 28788, LocalHits: 5623, RemoteHits: 10903, Misses: 12262, BytesRequested: 81967116, BytesLocal: 13494768, BytesRemote: 25796932, BytesMissed: 42675416, SimLatency: 38687192000000}},
		{core.AdHoc{}, 256 << 10, metrics.CountersSnapshot{Requests: 28788, LocalHits: 7926, RemoteHits: 8109, Misses: 12753, BytesRequested: 81967116, BytesLocal: 17410797, BytesRemote: 19771450, BytesMissed: 44784869, SimLatency: 39434826000000}},
		{core.EA{}, 1 << 20, metrics.CountersSnapshot{Requests: 28788, LocalHits: 9686, RemoteHits: 11935, Misses: 7167, BytesRequested: 81967116, BytesLocal: 25501035, BytesRemote: 32377998, BytesMissed: 24088083, SimLatency: 25448854000000}},
		{core.AdHoc{}, 1 << 20, metrics.CountersSnapshot{Requests: 28788, LocalHits: 16549, RemoteHits: 4715, Misses: 7524, BytesRequested: 81967116, BytesLocal: 39856751, BytesRemote: 15141758, BytesMissed: 26968607, SimLatency: 24975500000000}},
		{core.EA{}, 8 << 20, metrics.CountersSnapshot{Requests: 28788, LocalHits: 7831, RemoteHits: 18709, Misses: 2248, BytesRequested: 81967116, BytesLocal: 23135692, BytesRemote: 51520508, BytesMissed: 7310916, SimLatency: 13800236000000}},
		{core.AdHoc{}, 8 << 20, metrics.CountersSnapshot{Requests: 28788, LocalHits: 22092, RemoteHits: 3590, Misses: 3106, BytesRequested: 81967116, BytesLocal: 59351237, BytesRemote: 11907737, BytesMissed: 10708142, SimLatency: 13100316000000}},
	} {
		rep, err := Run(newGroup(t, 4, tc.aggregate, tc.scheme), records, Config{})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Group != tc.want {
			t.Errorf("%s at %s:\n got %#v\nwant %#v", tc.scheme.Name(), FormatBytes(tc.aggregate), rep.Group, tc.want)
		}
	}
}

// TestRunAllocBudget: at a size that evicts, a replayed request costs at
// most the eviction list its insert returns — no flight, channel, entry or
// candidate slice.
func TestRunAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates on its own")
	}
	records := goldenTrace(t)
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Run(newGroup(t, 4, 1<<20, core.EA{}), records, Config{}); err != nil {
			t.Fatal(err)
		}
	})
	if perReq := allocs / float64(len(records)); perReq > 0.6 {
		t.Errorf("sim.Run: %.3f allocs per request (%.0f over %d requests), want <= 0.6", perReq, allocs, len(records))
	}
}
