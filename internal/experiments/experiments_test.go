package experiments

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"eacache/internal/cache"
	"eacache/internal/group"
	"eacache/internal/resolve"
	"eacache/internal/trace"
)

// testSuite builds a suite over a tiny scaled workload with proportionally
// scaled sizes.
func testSuite(t *testing.T) *Suite {
	t.Helper()
	const scale = 0.005
	records, err := trace.Generate(trace.BULike().Scaled(scale))
	if err != nil {
		t.Fatal(err)
	}
	return NewSuite(records, Config{Sizes: ScaledSizes(scale)})
}

func TestScaledSizes(t *testing.T) {
	full := ScaledSizes(1)
	for i, s := range PaperSizes {
		if full[i] != s {
			t.Fatalf("ScaledSizes(1)[%d] = %d, want %d", i, full[i], s)
		}
	}
	tiny := ScaledSizes(1e-9)
	for _, s := range tiny {
		if s < 4096 {
			t.Fatalf("scaled size %d below the 4KB floor", s)
		}
	}
}

func TestSuiteDefaults(t *testing.T) {
	s := NewSuite(nil, Config{})
	cfg := s.Config()
	if len(cfg.Sizes) != len(PaperSizes) || cfg.Caches != 4 || len(cfg.GroupSizes) != 3 {
		t.Fatalf("defaults = %+v", cfg)
	}
	if cfg.Latency.Miss != 2784*time.Millisecond {
		t.Fatalf("latency default = %+v", cfg.Latency)
	}
}

func TestSuiteCleansAndSorts(t *testing.T) {
	records := []trace.Record{
		{UnixNano: time.Unix(200, 0).UnixNano(), Client: trace.MakeClient("u"), URL: "b", Size: 0},
		{UnixNano: time.Unix(100, 0).UnixNano(), Client: trace.MakeClient("u"), URL: "a", Size: 10},
	}
	s := NewSuite(records, Config{})
	got := s.Records()
	if !trace.Sorted(got) {
		t.Fatal("suite records not sorted")
	}
	for _, r := range got {
		if r.Size <= 0 {
			t.Fatal("zero sizes not cleaned")
		}
	}
	// The caller's slice is untouched.
	if records[0].Size != 0 || records[0].URL != "b" {
		t.Fatal("input mutated")
	}
}

func TestRunMemoization(t *testing.T) {
	s := testSuite(t)
	c := cell{scheme: "ea", caches: 2, aggregate: s.Config().Sizes[2], policy: "lru"}
	a, err := s.runAll(c)
	if err != nil {
		t.Fatal(err)
	}
	// The same configuration spelled out: distributed, ICP, the default
	// horizon.
	same := c
	same.arch, same.location, same.horizon = group.Distributed, resolve.LocateICP, cache.DefaultExpirationHorizon
	b, err := s.runAll(same)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] {
		t.Fatal("identical runs not memoized")
	}
	c.scheme = "adhoc"
	if d, err := s.runAll(c); err != nil || a[0] == d[0] {
		t.Fatalf("different configs shared a memo entry (err %v)", err)
	}
}

// TestAllReplaysEachConfigurationOnce: the quick pass's experiments share
// their configurations, so every replay of the suite's trace is one memo
// entry, and the entries are the 40 distinct configurations the tables
// ask for.
func TestAllReplaysEachConfigurationOnce(t *testing.T) {
	s := testSuite(t)
	if _, err := s.All(); err != nil {
		t.Fatal(err)
	}
	if len(s.runs) != 40 {
		t.Fatalf("All() replayed %d configurations, want 40", len(s.runs))
	}
}

func TestRunRejectsUnknownScheme(t *testing.T) {
	s := testSuite(t)
	for _, c := range []cell{
		{scheme: "bogus", caches: 2, aggregate: 1 << 20, policy: "lru"},
		{scheme: "ea", caches: 2, aggregate: 1 << 20, policy: "fifo"},
	} {
		if _, err := s.runAll(c); err == nil {
			t.Fatalf("%+v accepted", c)
		}
	}
}

func TestAllExperimentsRun(t *testing.T) {
	s := testSuite(t)
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(IDs) {
		t.Fatalf("got %d tables, want %d", len(tables), len(IDs))
	}
	for i, table := range tables {
		if table.ID != IDs[i] {
			t.Fatalf("table %d id = %q, want %q", i, table.ID, IDs[i])
		}
		if len(table.Rows) == 0 {
			t.Fatalf("%s: no rows", table.ID)
		}
		for _, row := range table.Rows {
			if len(row) != len(table.Columns) {
				t.Fatalf("%s: row width %d != columns %d", table.ID, len(row), len(table.Columns))
			}
		}
		out := table.String()
		if !strings.Contains(out, table.ID) || !strings.Contains(out, table.Columns[0]) {
			t.Fatalf("%s: render missing header:\n%s", table.ID, out)
		}
	}
}

func TestExperimentUnknownID(t *testing.T) {
	s := testSuite(t)
	if _, err := s.Experiment("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Run emits the tables before the failing experiment, and none after.
	var emitted []string
	err := s.Run([]string{"fig1", "nope", "fig2"}, func(t *Table) error {
		emitted = append(emitted, t.ID)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "nope") || !slices.Equal(emitted, []string{"fig1"}) {
		t.Fatalf("Run: emitted %v, err %v; want [fig1] and an error naming nope", emitted, err)
	}
}

func TestTableRenderAlignment(t *testing.T) {
	table := &Table{
		ID:      "x",
		Title:   "alignment",
		Columns: []string{"a", "long-column"},
		Notes:   []string{"a note"},
	}
	table.AddRow("wide-cell-value", "1")
	out := table.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, row, note
		t.Fatalf("render lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[len(lines)-1], "note:") {
		t.Fatalf("missing note line:\n%s", out)
	}
}

func TestMiddleSizes(t *testing.T) {
	sizes := []int64{1, 2, 3, 4, 5}
	if got := middleSizes(sizes, 3); len(got) != 3 || got[0] != 2 || got[2] != 4 {
		t.Fatalf("middleSizes(5,3) = %v", got)
	}
	if got := middleSizes(sizes, 9); len(got) != 5 {
		t.Fatalf("middleSizes(5,9) = %v", got)
	}
	if got := middleSizes(sizes, 1); len(got) != 1 || got[0] != 3 {
		t.Fatalf("middleSizes(5,1) = %v", got)
	}
}

func TestFig1ShapeOnDefaultWorkload(t *testing.T) {
	// The reproduction's headline shape: at every aggregate size the EA
	// scheme's hit rate is not meaningfully below ad-hoc's.
	s := testSuite(t)
	table, err := s.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		delta, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("unparseable delta %q: %v", row[3], err)
		}
		if delta < -1.0 {
			t.Errorf("size %s: EA clearly below ad-hoc (%+.2f pp)", row[0], delta)
		}
	}
}

func TestLocationTableShape(t *testing.T) {
	s := testSuite(t)
	table, err := s.Location()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		mech, icpMsgs := row[1], row[4]
		switch mech {
		case "icp":
			if icpMsgs == "0" {
				t.Fatalf("ICP row sent no messages: %v", row)
			}
			if row[6] != "0" {
				t.Fatalf("ICP row has false hits: %v", row)
			}
		case "digest":
			if icpMsgs != "0" {
				t.Fatalf("digest row sent ICP messages: %v", row)
			}
			// Incremental maintenance: the escape hatch never fires in
			// a healthy run.
			if row[5] != "0" {
				t.Fatalf("digest row took rebuild escapes: %v", row)
			}
		default:
			t.Fatalf("unknown mechanism %q", mech)
		}
	}
}

func TestPartitionedTableShape(t *testing.T) {
	s := testSuite(t)
	table, err := s.Partitioned()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		for _, cell := range row[1:] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(cell, "%"), 64)
			if err != nil {
				t.Fatalf("unparseable cell %q: %v", cell, err)
			}
			if v < 0 || v > 100 {
				t.Fatalf("rate out of range: %v", row)
			}
		}
	}
}

func TestModelCheckAgreement(t *testing.T) {
	s := testSuite(t)
	table, err := s.ModelCheck()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		diff, err := strconv.ParseFloat(row[3], 64)
		if err != nil {
			t.Fatalf("unparseable diff %q", row[3])
		}
		if diff < -3 || diff > 3 {
			t.Fatalf("model and simulator disagree by %vpp at capacity %s", diff, row[0])
		}
	}
}

func TestWorstCaseShape(t *testing.T) {
	s := testSuite(t)
	table, err := s.WorstCase()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range table.Rows {
		caches, err := strconv.Atoi(row[0])
		if err != nil {
			t.Fatal(err)
		}
		adhocCopies, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatal(err)
		}
		eaCopies, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatal(err)
		}
		// The §2 worst case: ad-hoc replicates on every cache.
		if adhocCopies < float64(caches)-0.1 {
			t.Errorf("%d caches: adhoc copies/doc = %v, want ~%d (full replication)",
				caches, adhocCopies, caches)
		}
		if eaCopies > adhocCopies+1e-9 {
			t.Errorf("%d caches: EA replicates more than adhoc (%v > %v)",
				caches, eaCopies, adhocCopies)
		}
		adhocHit, err := strconv.ParseFloat(strings.TrimSuffix(row[5], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		eaHit, err := strconv.ParseFloat(strings.TrimSuffix(row[6], "%"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if eaHit < adhocHit {
			t.Errorf("%d caches: EA hit %v below adhoc %v on the broadcast workload",
				caches, eaHit, adhocHit)
		}
	}
}
