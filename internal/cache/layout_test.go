package cache

import (
	"testing"
	"unsafe"
)

// TestDocumentLayout pins the per-document records: a Document is a URL
// and a size, and every store entry, store event and disk-tier entry
// carries one. A field added to Document grows all four, and every
// resident document of every cache pays for it.
func TestDocumentLayout(t *testing.T) {
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"Document", unsafe.Sizeof(Document{}), 24},
		{"Entry", unsafe.Sizeof(Entry{}), 104},
		{"Event", unsafe.Sizeof(Event{}), 128},
		{"DiskEntry", unsafe.Sizeof(DiskEntry{}), 112},
	} {
		if tc.got != tc.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}
