package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestAllGolden pins every rendered table (and chart) of the suite at the
// test scale to a digest: a changed row, note, column or chart point moves
// its table's digest.
func TestAllGolden(t *testing.T) {
	want := map[string]string{
		"fig1":            "8e40fac6dd12450f",
		"fig2":            "2b56244b17dec12e",
		"fig3":            "9737d6428e7ab593",
		"table1":          "99b73bec4b1bf571",
		"table2":          "29c43ab534337d67",
		"groupsize":       "ad84874580b89974",
		"replication":     "b3d8b35589f3fc0c",
		"ablation-policy": "4092dcbf5958c9c2",
		"ablation-window": "9aee75ce7e54c268",
		"hierarchy":       "915c20274aa02121",
		"location":        "66898820afd38974",
		"partitioned":     "14314de9a33c461d",
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
