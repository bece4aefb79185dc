package digest

// Config tunes the Summary-Cache digests of a node that locates documents
// by digest. The simulator's proxy and the live node size their filters
// from it the same way.
type Config struct {
	// Expected is the filter's expected entry count; 0 derives it from
	// the cache capacity at the paper's 4KB mean document size.
	Expected int
	// FPRate is the target false-positive rate (default 0.01).
	FPRate float64
}

// WithDefaults fills the zero fields from capacity, at the paper's 4KB
// mean document size.
func (c Config) WithDefaults(capacity int64) Config {
	if c.Expected == 0 {
		c.Expected = int(capacity / 4096)
		if c.Expected < 16 {
			c.Expected = 16
		}
	}
	if c.FPRate == 0 {
		c.FPRate = 0.01
	}
	return c
}
