package digest

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestMarshalUnmarshalRoundTrip(t *testing.T) {
	f, err := NewFilter(200, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 150; i++ {
		f.Add(fmt.Sprintf("http://e/doc%d", i))
	}
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g Filter
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if g.Bits() != f.Bits() || g.Hashes() != f.Hashes() || g.Len() != f.Len() {
		t.Fatalf("geometry mismatch after decode")
	}
	if g.FillRatio() != f.FillRatio() {
		t.Fatalf("fill ratio changed: %v vs %v", g.FillRatio(), f.FillRatio())
	}
	for i := 0; i < 150; i++ {
		if !g.MayContain(fmt.Sprintf("http://e/doc%d", i)) {
			t.Fatalf("decoded filter lost entry %d", i)
		}
	}
	// Re-encoding yields identical bytes.
	again, err := g.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatal("re-encode differs")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	f, err := NewFilter(64, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	f.Add("x")
	data, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	var g Filter
	cases := map[string][]byte{
		"empty":       nil,
		"short":       data[:10],
		"bad magic":   append([]byte("NOPE"), data[4:]...),
		"bad version": append(append([]byte{}, data[:4]...), append([]byte{9}, data[5:]...)...),
		"zero hashes": append(append([]byte{}, data[:5]...), append([]byte{0}, data[6:]...)...),
		"trailing":    append(append([]byte{}, data...), 0xff),
		"truncated":   data[:len(data)-3],
	}
	for name, corrupted := range cases {
		if err := g.UnmarshalBinary(corrupted); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
	// The original still decodes after all the failures.
	if err := g.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeDecode(t *testing.T) {
	f := func(keys []string, seed uint8) bool {
		filter, err := NewFilter(len(keys)+1, 0.01+float64(seed%50)/100)
		if err != nil {
			return false
		}
		for _, k := range keys {
			filter.Add(k)
		}
		data, err := filter.MarshalBinary()
		if err != nil {
			return false
		}
		var decoded Filter
		if err := decoded.UnmarshalBinary(data); err != nil {
			return false
		}
		for _, k := range keys {
			if !decoded.MayContain(k) {
				return false
			}
		}
		return decoded.Len() == filter.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
