package digest

import "fmt"

// DefaultDeltaWindow is how many mutations the per-generation change log
// retains when the caller does not choose: a peer whose replica is at
// most this many generations behind receives a compact delta instead of
// the full filter.
const DefaultDeltaWindow = 4096

// Incremental is the event-driven summary a cache advertises: a counting
// Bloom filter updated in O(k) per cache mutation, its live bit
// projection (what peers consult), a generation number that advances
// once per mutation, and a bounded change log of the projection bits each
// generation flipped. Peers that refresh with a generation inside the log
// window receive just the flipped bits (Delta); everyone else falls back
// to a full filter transfer.
//
// Generation 0 means "never built". Seed performs the initial build
// (generation 1); Rebuild is the counter-saturation escape hatch and is
// counted separately because steady state must never take it.
//
// Incremental is not safe for concurrent use; callers serialise access
// (the live node under its digest mutex, the simulator by being
// single-threaded). The *Filter returned by Filter() is the live
// projection and shares that locking discipline.
type Incremental struct {
	counts *Counting
	filter *Filter // live bit projection of counts
	gen    uint64
	window int

	// log is a ring of the last min(window, gen-genFloor) generations'
	// bit flips; entry i describes generation floor+i+1 where floor =
	// gen - len(ring entries in use).
	log      []flipRec
	logStart int
	logLen   int

	scratch []uint32
}

// flipRec records the projection bits one generation flipped: an Add
// generation only sets, a Remove generation only clears.
type flipRec struct {
	set   []uint32
	clear []uint32
}

// NewIncremental sizes the summary like NewFilter/NewCounting and
// retains a change log of window generations. window 0 selects
// DefaultDeltaWindow; negative windows are rejected (a caller that wants
// full transfers only passes 1 — the log always covers at least the
// empty delta).
func NewIncremental(expected int, fpRate float64, window int) (*Incremental, error) {
	if window < 0 {
		return nil, fmt.Errorf("digest: delta window must be >= 0, got %d", window)
	}
	if window == 0 {
		window = DefaultDeltaWindow
	}
	c, err := NewCounting(expected, fpRate)
	if err != nil {
		return nil, err
	}
	return &Incremental{
		counts: c,
		filter: &Filter{bits: make([]uint64, (c.m+63)/64), m: c.m, k: c.k},
		window: window,
		log:    make([]flipRec, window),
	}, nil
}

// Seed performs the initial build from the current URL set (typically
// after crash recovery, before the event sink starts feeding mutations)
// and publishes generation 1. It must be called exactly once, before any
// Add/Remove.
func (s *Incremental) Seed(urls []string) {
	s.rebuild(urls)
}

// Add counts url in, updates the projection, and advances a generation.
func (s *Incremental) Add(url string) {
	s.scratch = s.counts.Add(url, s.scratch[:0])
	for _, pos := range s.scratch {
		s.filter.set(uint64(pos))
	}
	s.filter.n = s.counts.n
	s.push(flipRec{set: copyFlips(s.scratch)})
}

// Remove counts url out, updates the projection, and advances a
// generation.
func (s *Incremental) Remove(url string) {
	s.scratch = s.counts.Remove(url, s.scratch[:0])
	for _, pos := range s.scratch {
		s.filter.clear(uint64(pos))
	}
	s.filter.n = s.counts.n
	s.push(flipRec{clear: copyFlips(s.scratch)})
}

// MayContain consults the advertised projection. Before Seed nothing is
// advertised.
func (s *Incremental) MayContain(url string) bool {
	if s.gen == 0 {
		return false
	}
	return s.counts.MayContain(url)
}

// Generation returns the current generation (0 before Seed).
func (s *Incremental) Generation() uint64 { return s.gen }

// Len returns the number of keys currently counted.
func (s *Incremental) Len() int { return s.counts.Len() }

// Window returns the change-log depth in generations.
func (s *Incremental) Window() int { return s.window }

// Filter returns the live bit projection (shared, caller-synchronised).
func (s *Incremental) Filter() *Filter { return s.filter }

// NeedsRebuild reports whether the counting filter has degraded past
// the saturation escape hatch (see Counting.NeedsRebuild).
func (s *Incremental) NeedsRebuild() bool { return s.counts.NeedsRebuild() }

// Rebuild is the escape hatch: a from-scratch rebuild over the true URL
// set, replacing counters, projection, and change log (peers must take a
// full transfer next refresh). Steady state never calls this; each call
// is counted.
func (s *Incremental) Rebuild(urls []string) {
	s.rebuild(urls)
}

// Pinned exposes the saturated-counter count for inspection.
func (s *Incremental) Pinned() int { return s.counts.Pinned() }

// Delta returns the compact update that brings a replica at generation
// since up to the current generation, or ok=false when the change log no
// longer covers that span (or since is from a different lineage, i.e.
// ahead of us) and a full transfer is needed.
func (s *Incremental) Delta(since uint64) (*Delta, bool) {
	if s.gen == 0 || since > s.gen || since == 0 {
		return nil, false
	}
	span := s.gen - since
	if span > uint64(s.logLen) {
		return nil, false
	}
	// Fold the flips of generations since+1..gen; the last flip of a bit
	// decides its final state (intermediate transitions are invisible to
	// the replica).
	final := make(map[uint32]bool)
	base := s.logLen - int(span)
	for i := base; i < s.logLen; i++ {
		rec := s.log[(s.logStart+i)%len(s.log)]
		for _, pos := range rec.set {
			final[pos] = true
		}
		for _, pos := range rec.clear {
			final[pos] = false
		}
	}
	d := &Delta{From: since, To: s.gen, N: uint64(s.counts.n)}
	for pos, set := range final {
		if set {
			d.Set = append(d.Set, pos)
		} else {
			d.Clear = append(d.Clear, pos)
		}
	}
	d.sort()
	return d, true
}

func (s *Incremental) rebuild(urls []string) {
	s.counts.Reset()
	for _, u := range urls {
		s.counts.Add(u, nil)
	}
	s.filter = s.counts.Project()
	s.gen++
	s.logStart = 0
	s.logLen = 0
}

func (s *Incremental) push(rec flipRec) {
	s.gen++
	if len(s.log) == 0 {
		return
	}
	if s.logLen < len(s.log) {
		s.log[(s.logStart+s.logLen)%len(s.log)] = rec
		s.logLen++
		return
	}
	s.log[s.logStart] = rec
	s.logStart = (s.logStart + 1) % len(s.log)
}

func copyFlips(flips []uint32) []uint32 {
	if len(flips) == 0 {
		return nil
	}
	return append([]uint32(nil), flips...)
}
