package cache

import (
	"strconv"
	"testing"
	"unsafe"
)

// TestDocumentLayout pins the per-document records: a Document is a URL
// and a size, and every store entry, store event and disk-tier entry
// carries one. A field added to Document grows all four, and every
// resident document of every cache pays for it. Each size is the sum of
// its fields in words (w, 8 bytes on a 64-bit platform and 4 on a 32-bit
// one) and int64s; a time.Time is two int64s and a pointer.
func TestDocumentLayout(t *testing.T) {
	const w = strconv.IntSize / 8
	const doc, stamp = 2*w + 8, 16 + w
	for _, tc := range []struct {
		name      string
		got, want uintptr
	}{
		{"Document", unsafe.Sizeof(Document{}), doc},
		// Doc, EnteredAt, LastHit, Hits, prev, next, heapIndex.
		{"Entry", unsafe.Sizeof(Entry{}), doc + 2*stamp + 8 + 3*w},
		// Kind, Doc, At, Age, Refresh and Tier in one word, EnteredAt,
		// LastHit, Hits.
		{"Event", unsafe.Sizeof(Event{}), w + doc + stamp + 8 + w + 2*stamp + 8},
		// Doc, EnteredAt, LastHit, Hits, Sum padded to a word.
		{"DiskEntry", unsafe.Sizeof(DiskEntry{}), doc + 2*stamp + 8 + w},
	} {
		if tc.got != tc.want {
			t.Errorf("unsafe.Sizeof(%s{}) = %d, want %d", tc.name, tc.got, tc.want)
		}
	}
}
