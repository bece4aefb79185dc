// Package trace provides the workload substrate: the request-record model,
// a canonical text format, a parser for Boston University client logs (the
// trace family the paper evaluates on), trace statistics, and a synthetic
// generator calibrated to the published BU trace shape for use when the
// original 1994-95 logs are not available.
package trace

import (
	"slices"
	"time"
)

// Record is one client request in a reference stream.
type Record struct {
	// Time is when the request was issued.
	Time time.Time
	// Client identifies the requesting user or user@machine; the
	// simulator routes each client to a fixed proxy in the group.
	Client string
	// URL identifies the requested document.
	URL string
	// Size is the document size in bytes. Zero means the original log
	// did not record a size; the paper (and CleanZeroSizes) substitutes
	// the 4KB average document size.
	Size int64
}

// DefaultDocSize is the 4KB average document size the paper substitutes for
// zero-size trace records.
const DefaultDocSize = 4096

// CleanZeroSizes returns records with every non-positive size replaced by
// def, mirroring the paper's trace preparation ("we made the size of each
// such record equal to average document size of 4K bytes"). It cleans in
// place, like SortByTime, and returns the slice it was given: a second copy
// of a whole trace is the largest allocation a replay would make.
func CleanZeroSizes(records []Record, def int64) []Record {
	for i := range records {
		if records[i].Size <= 0 {
			records[i].Size = def
		}
	}
	return records
}

// SortByTime sorts records chronologically (stable, preserving log order of
// simultaneous requests). A trace that is already in order, as Generate's
// output is, costs one scan.
func SortByTime(records []Record) {
	if Sorted(records) {
		return
	}
	slices.SortStableFunc(records, func(a, b Record) int { return a.Time.Compare(b.Time) })
}

// Sorted reports whether records are in chronological order.
func Sorted(records []Record) bool {
	for i := 1; i < len(records); i++ {
		if records[i].Time.Before(records[i-1].Time) {
			return false
		}
	}
	return true
}
