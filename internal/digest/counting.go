package digest

// Counting is a counting Bloom filter: the structure Summary Cache (Fan,
// Cao, Almeida & Broder, SIGCOMM '98, §4.2) proposes for maintaining a
// local summary incrementally — each bit of the advertised filter is
// backed by a 4-bit saturating counter, so deletions can clear bits
// again and the advertised summary never needs a full-URL-set rebuild in
// steady state.
//
// Counters saturate at 15 and are then pinned: a pinned counter has lost
// its true count, so it is never decremented again (clearing it could
// introduce a false negative) and its bit stays set until a full rebuild.
// Summary Cache shows the probability of any counter reaching 16 is
// ~1.37e-15 per counter at the recommended load, so pinning is an escape
// hatch, not a steady-state cost. Decrementing a zero counter is an
// accounting anomaly (a remove that was never added); it is recorded and
// forces a rebuild because the symmetric damage — some other counter left
// too high — cannot be located.
//
// Counting shares its geometry and hash family with Filter, so the bit
// projection (counter > 0) of a counting filter over a key set is
// bit-identical to a Filter freshly built from the same set, as long as
// no counter has pinned.
type Counting struct {
	counts []uint8 // two 4-bit counters per byte, low nibble first
	m      uint64  // number of counters (= bits of the projection)
	k      int     // hash functions
	n      int     // keys currently counted
	pinned int     // counters stuck at 15
	under  int     // decrements that found a zero counter
}

// counterMax is the saturation value of one 4-bit counter.
const counterMax = 15

// NewCounting sizes a counting filter exactly like NewFilter sizes a
// plain one, so projections and rebuilt filters are comparable.
func NewCounting(expected int, fpRate float64) (*Counting, error) {
	m, k, err := geometry(expected, fpRate)
	if err != nil {
		return nil, err
	}
	return &Counting{
		counts: make([]uint8, (m+1)/2),
		m:      m,
		k:      k,
	}, nil
}

// Add counts key in. Counter positions whose projected bit flipped 0→1
// are appended to flips (which may be nil) and the extended slice
// returned, so an incremental summary can maintain its bit projection
// and change log in O(k).
func (c *Counting) Add(key string, flips []uint32) []uint32 {
	h1, h2 := hashPair(key)
	for i := 0; i < c.k; i++ {
		pos := (h1 + uint64(i)*h2) % c.m
		switch v := c.get(pos); {
		case v >= counterMax:
			// Pinned: the counter stays saturated. (Reaching 15 pins it;
			// see the type comment.)
		case v == 0:
			c.put(pos, 1)
			flips = append(flips, uint32(pos))
		default:
			c.put(pos, v+1)
			if v+1 == counterMax {
				c.pinned++
			}
		}
	}
	c.n++
	return flips
}

// Remove counts key out. Counter positions whose projected bit flipped
// 1→0 are appended to flips and the extended slice returned. Removing a
// key that was never added corrupts the filter; the damage is detected
// (a zero counter decremented) and reported via NeedsRebuild.
func (c *Counting) Remove(key string, flips []uint32) []uint32 {
	h1, h2 := hashPair(key)
	for i := 0; i < c.k; i++ {
		pos := (h1 + uint64(i)*h2) % c.m
		switch v := c.get(pos); {
		case v >= counterMax:
			// Pinned: true count unknown, never decrement.
		case v == 0:
			c.under++
		case v == 1:
			c.put(pos, 0)
			flips = append(flips, uint32(pos))
		default:
			c.put(pos, v-1)
		}
	}
	if c.n > 0 {
		c.n--
	}
	return flips
}

// MayContain consults the projected bits, exactly like Filter.MayContain
// on the projection.
func (c *Counting) MayContain(key string) bool {
	h1, h2 := hashPair(key)
	for i := 0; i < c.k; i++ {
		if c.get((h1+uint64(i)*h2)%c.m) == 0 {
			return false
		}
	}
	return true
}

// Project writes the counter>0 bit projection into a fresh Filter of the
// same geometry.
func (c *Counting) Project() *Filter {
	f := &Filter{
		bits: make([]uint64, (c.m+63)/64),
		m:    c.m,
		k:    c.k,
		n:    c.n,
	}
	for pos := uint64(0); pos < c.m; pos++ {
		if c.get(pos) > 0 {
			f.set(pos)
		}
	}
	return f
}

// Len returns the number of keys currently counted.
func (c *Counting) Len() int { return c.n }

// Hashes returns the number of hash functions.
func (c *Counting) Hashes() int { return c.k }

// Pinned returns how many counters have saturated and are stuck at 15.
func (c *Counting) Pinned() int { return c.pinned }

// Underflows returns how many decrements found an already-zero counter.
func (c *Counting) Underflows() int { return c.under }

// NeedsRebuild reports whether the filter has degraded enough that only
// a from-scratch rebuild restores exactness: any underflow (possible
// false negatives elsewhere), or pinned counters past a small fraction
// of the filter (their stuck bits inflate the false-positive rate).
func (c *Counting) NeedsRebuild() bool {
	maxPinned := int(c.m / 256)
	if maxPinned < 4 {
		maxPinned = 4
	}
	return c.under > 0 || c.pinned > maxPinned
}

// Reset clears every counter and the degradation accounting.
func (c *Counting) Reset() {
	for i := range c.counts {
		c.counts[i] = 0
	}
	c.n = 0
	c.pinned = 0
	c.under = 0
}

func (c *Counting) get(pos uint64) uint8 {
	b := c.counts[pos/2]
	if pos%2 == 0 {
		return b & 0x0f
	}
	return b >> 4
}

func (c *Counting) put(pos uint64, v uint8) {
	i := pos / 2
	if pos%2 == 0 {
		c.counts[i] = c.counts[i]&0xf0 | v
	} else {
		c.counts[i] = c.counts[i]&0x0f | v<<4
	}
}
