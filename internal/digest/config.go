package digest

// FPRate is the false-positive rate every node's digest is sized for.
const FPRate = 0.01

// ExpectedEntries is the expected entry count of the digest of a cache
// holding capacity bytes, at the paper's 4KB mean document size and never
// below 16. The simulator's proxy and the live node size their filters
// with it the same way.
func ExpectedEntries(capacity int64) int {
	return max(int(capacity/4096), 16)
}
