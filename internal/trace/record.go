// Package trace provides the workload substrate: the request-record model,
// a canonical text format, a parser for Boston University client logs (the
// trace family the paper evaluates on), trace statistics, and a synthetic
// generator calibrated to the published BU trace shape for use when the
// original 1994-95 logs are not available.
package trace

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
	"unique"
)

// Record is one client request in a reference stream, 40 bytes on a 64-bit
// platform.
type Record struct {
	// UnixNano is when the request was issued, in nanoseconds since the
	// Unix epoch. An int64 rather than a time.Time saves 16 bytes a
	// record: a time.Time is 24, and its *Location is the same in every
	// record of a trace.
	UnixNano int64
	// Client identifies the requesting user or user@machine; the
	// simulator routes each client to a fixed proxy in the group.
	Client Client
	// URL identifies the requested document.
	URL string
	// Size is the document size in bytes. Zero means the original log
	// did not record a size; the paper (and CleanZeroSizes) substitutes
	// the 4KB average document size.
	Size int64
}

// Client is the name of a requesting user as an interned handle: one
// pointer, where a string is two words, and every record of one client
// holds the same one. The zero Client is the empty name.
type Client unique.Handle[string]

// MakeClient returns the client called name.
func MakeClient(name string) Client {
	if name == "" {
		return Client{}
	}
	return Client(unique.Make(name))
}

// String returns the client's name.
func (c Client) String() string {
	if c == (Client{}) {
		return ""
	}
	return unique.Handle[string](c).Value()
}

// Time returns when the request was issued, in UTC.
func (r Record) Time() time.Time { return time.Unix(0, r.UnixNano).UTC() }

// DefaultDocSize is the 4KB average document size the paper substitutes for
// zero-size trace records.
const DefaultDocSize = 4096

// CleanZeroSizes returns records with every non-positive size replaced by
// def, mirroring the paper's trace preparation ("we made the size of each
// such record equal to average document size of 4K bytes"). It cleans in
// place, like SortByTime, and returns the slice it was given: a second copy
// of a whole trace is the largest allocation a replay would make.
func CleanZeroSizes(records []Record, def int64) []Record {
	eachPiece(len(records), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if records[i].Size <= 0 {
				records[i].Size = def
			}
		}
	})
	return records
}

// SortByTime sorts records chronologically (stable, preserving log order of
// simultaneous requests). A trace that is already in order, as Generate's
// output is, costs one scan.
func SortByTime(records []Record) {
	if Sorted(records) {
		return
	}
	slices.SortStableFunc(records, func(a, b Record) int { return cmp.Compare(a.UnixNano, b.UnixNano) })
}

// Sorted reports whether records are in chronological order.
func Sorted(records []Record) bool {
	var unsorted atomic.Bool
	eachPiece(len(records), func(lo, hi int) {
		for i := max(lo, 1); i < hi; i++ {
			if records[i].UnixNano < records[i-1].UnixNano {
				unsorted.Store(true)
				return
			}
		}
	})
	return !unsorted.Load()
}

// eachPiece calls f on contiguous pieces [lo, hi) of [0, n), one per core
// and each at least minPieceRecords long, concurrently: one core does not
// saturate the memory a scan of a whole trace reads (on a 2-vCPU Xeon, a
// full-scale CleanZeroSizes and Sorted took 1.7 ms on both cores against
// 3.0 ms on one).
func eachPiece(n int, f func(lo, hi int)) {
	pieces := max(1, min(runtime.GOMAXPROCS(0), n/minPieceRecords))
	var wg sync.WaitGroup
	wg.Add(pieces - 1)
	for j := 1; j < pieces; j++ {
		go func() { defer wg.Done(); f(j*n/pieces, (j+1)*n/pieces) }()
	}
	f(0, n/pieces)
	wg.Wait()
}
