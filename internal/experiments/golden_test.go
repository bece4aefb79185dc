package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestAllGolden pins every rendered table (and chart) of the suite at the
// test scale to a digest: a changed row, note, column or chart point moves
// its table's digest. Sizes are labelled by the paper sizes they scale.
func TestAllGolden(t *testing.T) {
	want := map[string]string{
		"fig1":            "9222203435f99b8c",
		"fig2":            "6ff4d7e5c027f420",
		"fig3":            "f6ed214a71d3bc74",
		"table1":          "a69bb0ed53e30b3e",
		"table2":          "4bf1d52ace9a596a",
		"groupsize":       "8b214b3e114a2e5c",
		"replication":     "cbf7f351718e0999",
		"ablation-policy": "8209c3bffbd47a6c",
		"ablation-window": "2e325f9a9a8ae1ea",
		"hierarchy":       "8150b580107fdf4a",
		"location":        "e748ddf23de339f2",
		"partitioned":     "85fc1fbe8cd57399",
		"worstcase":       "ee99adcabcbb8222",
		"model-check":     "a002a2690cafc833",
	}
	s := testSuite(t)
	tables, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	for _, table := range tables {
		sum := sha256.Sum256([]byte(table.String()))
		if got := hex.EncodeToString(sum[:8]); got != want[table.ID] {
			t.Errorf("%s: digest %s, want %s\n%s", table.ID, got, want[table.ID], table)
		}
	}
}
