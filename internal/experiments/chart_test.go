package experiments

import (
	"math"
	"strings"
	"testing"

	"eacache/internal/trace"
)

func TestChartRender(t *testing.T) {
	c := &Chart{
		Title:   "test chart",
		YLabel:  "pct",
		XLabels: []string{"a", "b", "c"},
		Series: []Series{
			{Name: "s1", Mark: 'x', Values: []float64{1, 5, 9}},
			{Name: "s2", Mark: 'o', Values: []float64{2, 5, 8}},
		},
		Height: 8,
	}
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"test chart", "x=s1", "o=s2", "y: pct", "a", "b", "c"} {
		if !strings.Contains(out, want) {
			t.Fatalf("chart missing %q:\n%s", want, out)
		}
	}
	// Overlapping points (both series at 5 for x=b) render as '+'.
	if !strings.Contains(out, "+") {
		t.Fatalf("overlap marker missing:\n%s", out)
	}
	if !strings.Contains(out, "x") || !strings.Contains(out, "o") {
		t.Fatalf("series marks missing:\n%s", out)
	}
}

func TestChartRenderErrors(t *testing.T) {
	if err := (&Chart{}).Render(&strings.Builder{}); err == nil {
		t.Fatal("empty chart rendered")
	}
	onlyNaN := &Chart{
		XLabels: []string{"a"},
		Series:  []Series{{Name: "s", Mark: 'x', Values: []float64{math.NaN()}}},
	}
	if err := onlyNaN.Render(&strings.Builder{}); err == nil {
		t.Fatal("pointless chart rendered")
	}
}

func TestChartFlatSeries(t *testing.T) {
	c := &Chart{
		Title:   "flat",
		XLabels: []string{"a", "b"},
		Series:  []Series{{Name: "s", Mark: 'x', Values: []float64{3, 3}}},
	}
	var b strings.Builder
	if err := c.Render(&b); err != nil {
		t.Fatalf("flat series failed: %v", err)
	}
}

func TestFiguresCarryCharts(t *testing.T) {
	s := testSuite(t)
	for _, id := range []string{"fig1", "fig2", "fig3"} {
		table, err := s.Experiment(id)
		if err != nil {
			t.Fatal(err)
		}
		if table.Chart == nil {
			t.Fatalf("%s has no chart", id)
		}
		if !strings.Contains(table.String(), "legend:") {
			t.Fatalf("%s render lacks the chart:\n%s", id, table.String())
		}
		for _, series := range table.Chart.Series {
			for i, v := range series.Values {
				if math.IsNaN(v) {
					t.Fatalf("%s series %s point %d unset", id, series.Name, i)
				}
			}
		}
	}
}

func TestMultiSeed(t *testing.T) {
	const scale = 0.005
	generate := func(i int) ([]trace.Record, error) {
		gen := trace.BULike().Scaled(scale)
		gen.Seed = uint64(1 + i)
		return trace.Generate(gen)
	}
	table, err := MultiSeed(3, generate, Config{Sizes: ScaledSizes(scale)})
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != len(ScaledSizes(scale)) {
		t.Fatalf("rows = %d", len(table.Rows))
	}
	for _, row := range table.Rows {
		if !strings.Contains(row[1], "+/-") {
			t.Fatalf("row lacks spread: %v", row)
		}
	}
}

func TestMultiSeedValidation(t *testing.T) {
	generate := func(int) ([]trace.Record, error) {
		t.Error("a workload was generated for an invalid seed count")
		return nil, nil
	}
	if _, err := MultiSeed(0, generate, Config{}); err == nil {
		t.Fatal("empty trace set accepted")
	}
	if _, err := MultiSeed(1, generate, Config{}); err == nil {
		t.Fatal("single trace accepted")
	}
}

func TestMeanStddev(t *testing.T) {
	m, sd := meanStddev([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Fatalf("mean = %v", m)
	}
	if math.Abs(sd-2.138) > 0.001 {
		t.Fatalf("sd = %v", sd)
	}
	if m, sd := meanStddev(nil); m != 0 || sd != 0 {
		t.Fatal("empty input")
	}
	if m, sd := meanStddev([]float64{7}); m != 7 || sd != 0 {
		t.Fatal("single input")
	}
}
