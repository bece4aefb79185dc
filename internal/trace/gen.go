package trace

import (
	"fmt"
	"time"

	"eacache/internal/dist"
)

// GenConfig parameterises the synthetic workload generator. The generator
// stands in for the Boston University proxy logs the paper uses (recorded
// November 1994 – February 1995 and no longer distributed): it reproduces
// the published trace shape — request and unique-document counts, Zipf-like
// popularity, heavy-tailed sizes around a 4KB mean, per-user sessions —
// which are the only properties the paper's results depend on.
type GenConfig struct {
	// Requests is the number of records to emit.
	Requests int
	// UniqueDocs is the catalogue size (the number of distinct URLs that
	// can be referenced).
	UniqueDocs int
	// ZipfAlpha is the popularity skew; web traces measure 0.6-0.9.
	ZipfAlpha float64

	// HotDocs and HotWeight model the ultra-hot head of mid-90s client
	// traces: site-wide inline images (logos, bullets, backgrounds) and
	// home pages that every page view drags along. Each inline-object
	// request draws from the HotDocs most popular documents with
	// probability HotWeight. This head is requested at every proxy
	// within minutes — the uncontrolled replication the EA scheme
	// targets lives here.
	HotDocs   int
	HotWeight float64

	// InlinePerView is the mean number of inline objects fetched after
	// each page (geometrically distributed). Mosaic-era pages embedded a
	// few images, fetched within seconds of the page itself; the page
	// view is the burst unit of the reference stream.
	InlinePerView float64

	// MeanDocSize is the mean document size in bytes (paper: 4KB).
	MeanDocSize int64
	// MaxDocSize bounds the heavy-tailed size distribution.
	MaxDocSize int64
	// SizeAlpha is the bounded-Pareto shape of the size distribution.
	SizeAlpha float64
	// ZeroSizeFraction of records are emitted with size 0, mimicking the
	// uninstrumented records in the original logs that the paper cleans
	// to 4KB.
	ZeroSizeFraction float64

	// Users is the number of distinct clients (paper: 591).
	Users int
	// Sessions is the total number of user sessions (paper: ~4700).
	Sessions int
	// SessionLength is the mean active length of one session.
	SessionLength time.Duration

	// SelfAffinity is the probability that a request re-references one of
	// the user's recently fetched documents instead of drawing from the
	// global popularity distribution; it models per-user temporal
	// locality (browser revisits), which client traces show strongly.
	SelfAffinity float64
	// HistoryDepth is how many recent distinct documents per user are
	// candidates for re-reference.
	HistoryDepth int

	// CohortFraction is the fraction of sessions that belong to cohorts:
	// groups of users browsing the same pages at the same time, like the
	// lab sections behind the BU traces (a class of students following
	// the same assignment links within minutes of each other). Cohort
	// members are distinct users — so they sit behind different proxies —
	// and their shared page stream is what makes the same document be
	// requested at several caches within one cache-residency window even
	// when caches are tiny. Ad-hoc placement replicates the whole shared
	// stream at every member's proxy; controlling that replication is
	// where the EA scheme's small-cache gains come from.
	CohortFraction float64
	// CohortSize is the number of sessions per cohort.
	CohortSize int
	// CohortSpread is how far apart cohort members start (students
	// trickle into the lab over this window). Zero defaults to 5
	// minutes.
	CohortSpread time.Duration

	// UserActivityAlpha is the Zipf exponent of per-user activity: a few
	// heavy users generate many sessions while most users generate few,
	// as client-trace studies report. This skew is what creates the
	// persistent per-proxy disk-contention differences the EA scheme's
	// expiration-age signal measures. 0 means uniform activity.
	UserActivityAlpha float64

	// DiurnalStrength in [0,1) concentrates session starts into campus
	// daytime hours (0 = uniform over the span). The BU logs were
	// collected in university labs, so activity clusters into busy
	// daytime periods; this burstiness is what makes documents be
	// referenced at several proxies within one cache-residency window —
	// the replication the EA scheme exists to control.
	DiurnalStrength float64
	// WeekendFactor in (0,1] scales session intensity on Saturdays and
	// Sundays (1 = no weekly pattern).
	WeekendFactor float64

	// Start is the timestamp of the beginning of the trace.
	Start time.Time
	// Span is the period the trace covers (paper: ~3.5 months).
	Span time.Duration

	// Seed makes generation deterministic.
	Seed uint64
}

// BULike returns a configuration calibrated to the published statistics of
// the Boston University traces used in the paper: 575,775 requests over
// 46,830 unique documents from 591 users across roughly 4,700 sessions,
// with a 4KB mean document size, spanning mid-November 1994 to the end of
// February 1995.
func BULike() GenConfig {
	return GenConfig{
		Requests:          575775,
		UniqueDocs:        46830,
		ZipfAlpha:         0.75,
		HotDocs:           24,
		HotWeight:         0.3,
		InlinePerView:     2.0,
		MeanDocSize:       DefaultDocSize,
		MaxDocSize:        8 << 20,
		SizeAlpha:         1.3,
		ZeroSizeFraction:  0.05,
		Users:             591,
		Sessions:          4700,
		SessionLength:     30 * time.Minute,
		SelfAffinity:      0.3,
		HistoryDepth:      16,
		CohortFraction:    0.5,
		CohortSize:        12,
		CohortSpread:      30 * time.Minute,
		UserActivityAlpha: 0.8,
		DiurnalStrength:   0.85,
		WeekendFactor:     0.3,
		Start:             time.Date(1994, time.November, 15, 0, 0, 0, 0, time.UTC),
		Span:              105 * 24 * time.Hour,
		Seed:              1,
	}
}

// Scaled returns a copy of c with request, catalogue, user and session
// counts multiplied by f (minimum 1 each), for fast tests and benchmarks
// that keep the workload's shape.
func (c GenConfig) Scaled(f float64) GenConfig {
	scale := func(n int) int {
		m := int(float64(n) * f)
		if m < 1 {
			return 1
		}
		return m
	}
	c.Requests = scale(c.Requests)
	c.UniqueDocs = scale(c.UniqueDocs)
	c.Users = scale(c.Users)
	c.Sessions = scale(c.Sessions)
	return c
}

// Validate reports the first configuration problem.
func (c GenConfig) Validate() error {
	switch {
	case c.Requests <= 0:
		return fmt.Errorf("trace: Requests must be positive, got %d", c.Requests)
	case c.UniqueDocs <= 0:
		return fmt.Errorf("trace: UniqueDocs must be positive, got %d", c.UniqueDocs)
	case c.ZipfAlpha < 0:
		return fmt.Errorf("trace: ZipfAlpha must be >= 0, got %v", c.ZipfAlpha)
	case c.HotDocs < 0 || c.HotDocs > c.UniqueDocs:
		return fmt.Errorf("trace: HotDocs must be in [0,UniqueDocs], got %d", c.HotDocs)
	case c.HotWeight < 0 || c.HotWeight >= 1:
		return fmt.Errorf("trace: HotWeight must be in [0,1), got %v", c.HotWeight)
	case c.HotWeight > 0 && c.HotDocs == 0:
		return fmt.Errorf("trace: HotWeight %v needs HotDocs > 0", c.HotWeight)
	case c.InlinePerView < 0:
		return fmt.Errorf("trace: InlinePerView must be >= 0, got %v", c.InlinePerView)
	case c.MeanDocSize <= 0:
		return fmt.Errorf("trace: MeanDocSize must be positive, got %d", c.MeanDocSize)
	case c.MaxDocSize <= c.MeanDocSize:
		return fmt.Errorf("trace: MaxDocSize must exceed MeanDocSize, got %d <= %d", c.MaxDocSize, c.MeanDocSize)
	case c.SizeAlpha <= 0:
		return fmt.Errorf("trace: SizeAlpha must be positive, got %v", c.SizeAlpha)
	case c.ZeroSizeFraction < 0 || c.ZeroSizeFraction >= 1:
		return fmt.Errorf("trace: ZeroSizeFraction must be in [0,1), got %v", c.ZeroSizeFraction)
	case c.Users <= 0:
		return fmt.Errorf("trace: Users must be positive, got %d", c.Users)
	case c.Sessions <= 0:
		return fmt.Errorf("trace: Sessions must be positive, got %d", c.Sessions)
	case c.SessionLength <= 0:
		return fmt.Errorf("trace: SessionLength must be positive, got %v", c.SessionLength)
	case c.SelfAffinity < 0 || c.SelfAffinity >= 1:
		return fmt.Errorf("trace: SelfAffinity must be in [0,1), got %v", c.SelfAffinity)
	case c.HistoryDepth < 0:
		return fmt.Errorf("trace: HistoryDepth must be >= 0, got %d", c.HistoryDepth)
	case c.UserActivityAlpha < 0:
		return fmt.Errorf("trace: UserActivityAlpha must be >= 0, got %v", c.UserActivityAlpha)
	case c.CohortFraction < 0 || c.CohortFraction > 1:
		return fmt.Errorf("trace: CohortFraction must be in [0,1], got %v", c.CohortFraction)
	case c.CohortFraction > 0 && c.CohortSize < 2:
		return fmt.Errorf("trace: CohortFraction %v needs CohortSize >= 2, got %d", c.CohortFraction, c.CohortSize)
	case c.DiurnalStrength < 0 || c.DiurnalStrength >= 1:
		return fmt.Errorf("trace: DiurnalStrength must be in [0,1), got %v", c.DiurnalStrength)
	case c.WeekendFactor < 0 || c.WeekendFactor > 1:
		return fmt.Errorf("trace: WeekendFactor must be in [0,1], got %v", c.WeekendFactor)
	case c.Span <= 0:
		return fmt.Errorf("trace: Span must be positive, got %v", c.Span)
	}
	return nil
}

// Generate produces a chronologically sorted synthetic reference stream.
// Requests are drawn as 16-byte events, one time-ordered run per session,
// and the runs are merged straight into the records: each Record is built
// once, in its final place, and no 64-byte record is ever moved by a sort.
func Generate(cfg GenConfig) ([]Record, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	// The records come before the events, so that the collection that sets
	// the heap goal for the rest of the trace's life sees only them.
	records := make([]Record, cfg.Requests)
	g, err := draw(cfg)
	if err != nil {
		return nil, err
	}
	g.merge(records)
	return records, nil
}

// draw builds the generator and draws every request of the trace as an
// event, in generation order.
func draw(cfg GenConfig) (*generator, error) {
	rng := dist.NewRNG(cfg.Seed)

	catalog, err := buildCatalog(cfg, rng.Split())
	if err != nil {
		return nil, err
	}
	zipf, err := dist.NewZipf(cfg.UniqueDocs, cfg.ZipfAlpha)
	if err != nil {
		return nil, err
	}
	userZipf, err := dist.NewZipf(cfg.Users, cfg.UserActivityAlpha)
	if err != nil {
		return nil, err
	}
	// Decouple a user's id from their activity rank so heavy users spread
	// across proxies rather than clustering on low ids.
	userPerm := make([]int, cfg.Users)
	for i := range userPerm {
		userPerm[i] = i
	}
	rng.Shuffle(cfg.Users, func(i, j int) { userPerm[i], userPerm[j] = userPerm[j], userPerm[i] })

	histories := make([]*history, cfg.Users)
	for i := range histories {
		histories[i] = newHistory(cfg.HistoryDepth)
	}

	// Each session is a sequence of page views: a page request followed
	// by a short burst of inline-object requests, then a think pause
	// before the next page. Think times are sized so a session's views
	// span SessionLength on average.
	base := cfg.Requests / cfg.Sessions
	extra := cfg.Requests % cfg.Sessions
	viewsPerSession := float64(base) / (1 + cfg.InlinePerView)
	if viewsPerSession < 1 {
		viewsPerSession = 1
	}
	think, err := dist.NewExponential(cfg.SessionLength.Seconds() / viewsPerSession)
	if err != nil {
		return nil, err
	}
	inlineGap, err := dist.NewExponential(0.8)
	if err != nil {
		return nil, err
	}

	gen := &generator{
		cfg:       cfg,
		rng:       rng,
		zipf:      zipf,
		catalog:   catalog,
		histories: histories,
		think:     think,
		inlineGap: inlineGap,
		events:    make([]event, 0, cfg.Requests),
		runs:      make(runHeap, 0, cfg.Sessions),
		clients:   make([]string, cfg.Users),
		urls:      make([]string, len(catalog)),
	}

	// The first cohortSessions sessions are grouped into cohorts of
	// CohortSize members browsing a shared page stream; the rest are
	// independent solo sessions.
	sessionLen := func(s int) int {
		if s < extra {
			return base + 1
		}
		return base
	}
	numCohorts := 0
	if cfg.CohortSize >= 2 {
		numCohorts = int(cfg.CohortFraction*float64(cfg.Sessions)) / cfg.CohortSize
	}
	spread := cfg.CohortSpread
	if spread <= 0 {
		spread = 5 * time.Minute
	}
	s := 0
	for c := 0; c < numCohorts; c++ {
		maxN := sessionLen(s) // sessions are served longest-first
		master := gen.masterStream(maxN)
		start := sampleSessionStart(cfg, rng)
		for m := 0; m < cfg.CohortSize; m++ {
			user := userPerm[userZipf.Rank(rng)]
			jitter := time.Duration(rng.Float64() * float64(spread))
			gen.emitSession(user, start+jitter, sessionLen(s), master)
			s++
		}
	}
	for ; s < cfg.Sessions; s++ {
		n := sessionLen(s)
		if n == 0 {
			continue
		}
		user := userPerm[userZipf.Rank(rng)]
		gen.emitSession(user, sampleSessionStart(cfg, rng), n, nil)
	}
	return gen, nil
}

// generator carries the shared sampling state of one Generate call.
type generator struct {
	cfg       GenConfig
	rng       *dist.RNG
	zipf      *dist.Zipf
	catalog   []int64
	histories []*history
	think     *dist.Exponential
	inlineGap *dist.Exponential
	events    []event  // every request, in generation order
	runs      runHeap  // one run of events per session
	clients   []string // client name of each user, formatted on first reference
	urls      []string // docURL of each catalog entry, formatted on first reference
}

// event is one drawn request in 16 bytes: its offset from cfg.Start, its
// document, and its user, stored inverted when the log recorded no size.
type event struct {
	at   time.Duration
	doc  int32
	user int32
}

// run is a cursor over one session's events, which are in time order
// because every gap a session draws is non-negative.
type run struct {
	at       time.Duration // events[pos].at
	pos, end int
}

// before orders runs by their next event's time. Runs are laid out in
// generation order, so on equal times the lower position is the earlier
// run and ties keep generation order.
func (r run) before(o run) bool {
	return r.at < o.at || r.at == o.at && r.pos < o.pos
}

// runHeap is a binary min-heap of runs: a k-way merge of the sessions.
type runHeap []run

func (h runHeap) down(i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// merge fills records with the events in time order, ties in generation
// order, building each Record once in place.
func (g *generator) merge(records []Record) {
	h := g.runs
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	for i := range records {
		e := g.events[h[0].pos]
		if h[0].pos++; h[0].pos < h[0].end {
			h[0].at = g.events[h[0].pos].at
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		h.down(0)
		g.record(&records[i], e)
	}
}

// record builds e's Record in *r. Client names are formatted once per user
// and URLs once per document.
func (g *generator) record(r *Record, e event) {
	user, size := int(e.user), g.catalog[e.doc]
	if user < 0 {
		user, size = ^user, 0
	}
	if g.clients[user] == "" {
		g.clients[user] = fmt.Sprintf("u%04d", user)
	}
	if g.urls[e.doc] == "" {
		g.urls[e.doc] = docURL(int(e.doc))
	}
	*r = Record{Time: g.cfg.Start.Add(e.at), Client: g.clients[user], URL: g.urls[e.doc], Size: size}
}

// step is one position of a cohort's shared page stream.
type step struct {
	doc    int
	inline bool
}

// masterStream generates the shared reference sequence of a cohort: the
// pages the whole lab section walks through, with their inline objects. No
// per-user history applies — the stream is the assignment, not a browse.
func (g *generator) masterStream(n int) []step {
	master := make([]step, n)
	inlineLeft := 0
	for i := range master {
		if inlineLeft > 0 {
			inlineLeft--
			master[i] = step{doc: pickInline(g.cfg, g.rng, g.zipf), inline: true}
			continue
		}
		master[i] = step{doc: g.zipf.Rank(g.rng)}
		inlineLeft = sampleGeometric(g.rng, g.cfg.InlinePerView)
	}
	return master
}

// emitSession appends one session's events and its run: either a solo
// browse (master nil — pages drawn per user with self-affinity) or a cohort
// member's walk of the shared master stream with individual timing. start
// and the event times are offsets from cfg.Start.
func (g *generator) emitSession(user int, start time.Duration, n int, master []step) {
	h := g.histories[user]
	t, pos := start, len(g.events)
	inlineLeft := 0
	for i := 0; i < n; i++ {
		var (
			docID  int
			inline bool
		)
		if master != nil {
			docID, inline = master[i].doc, master[i].inline
		} else if inlineLeft > 0 {
			inlineLeft--
			docID, inline = pickInline(g.cfg, g.rng, g.zipf), true
		} else {
			docID = pickDoc(g.cfg, g.rng, g.zipf, h)
			inlineLeft = sampleGeometric(g.rng, g.cfg.InlinePerView)
		}
		if inline {
			t += time.Duration((0.2 + g.inlineGap.Sample(g.rng)) * float64(time.Second))
		} else {
			t += time.Duration(g.think.Sample(g.rng) * float64(time.Second))
		}
		h.add(docID)
		e := event{at: t, doc: int32(docID), user: int32(user)}
		if g.cfg.ZeroSizeFraction > 0 && g.rng.Float64() < g.cfg.ZeroSizeFraction {
			e.user = ^e.user
		}
		g.events = append(g.events, e)
	}
	if n > 0 {
		g.runs = append(g.runs, run{at: g.events[pos].at, pos: pos, end: len(g.events)})
	}
}

// buildCatalog draws a size for every document. Document IDs are already in
// popularity-rank order (0 = most popular); URL naming decouples rank from
// name via a deterministic shuffle so URL order carries no information.
func buildCatalog(cfg GenConfig, rng *dist.RNG) ([]int64, error) {
	sizes, err := dist.ParetoWithMean(float64(cfg.MeanDocSize), float64(cfg.MaxDocSize), cfg.SizeAlpha)
	if err != nil {
		return nil, err
	}
	catalog := make([]int64, cfg.UniqueDocs)
	for i := range catalog {
		catalog[i] = int64(sizes.Sample(rng))
		if catalog[i] < 1 {
			catalog[i] = 1
		}
		// The ultra-hot head is made of small site-wide images (logos,
		// bullets); cap them at the 4KB mean so their popularity, not
		// their bulk, is what stresses the caches.
		if i < cfg.HotDocs && catalog[i] > cfg.MeanDocSize {
			catalog[i] = cfg.MeanDocSize
		}
	}
	return catalog, nil
}

// sampleSessionStart draws a session start as an offset from cfg.Start,
// concentrated into weekday daytime hours by rejection sampling against the
// diurnal/weekly intensity profile. With DiurnalStrength 0 and
// WeekendFactor 1 it is uniform.
func sampleSessionStart(cfg GenConfig, rng *dist.RNG) time.Duration {
	for {
		d := time.Duration(rng.Float64() * float64(cfg.Span))
		if rng.Float64() <= sessionIntensity(cfg, cfg.Start.Add(d)) {
			return d
		}
	}
}

// sessionIntensity returns the relative session arrival intensity at t,
// normalised to (0, 1] so it can gate rejection sampling directly.
func sessionIntensity(cfg GenConfig, t time.Time) float64 {
	w := 1.0
	if cfg.DiurnalStrength > 0 {
		// A campus-lab day: quiet overnight, ramping from 08:00 to an
		// afternoon peak around 14:00, tailing off in the evening.
		hour := float64(t.Hour()) + float64(t.Minute())/60
		shape := 0.0
		switch {
		case hour >= 8 && hour < 14:
			shape = (hour - 8) / 6
		case hour >= 14 && hour < 23:
			shape = 1 - (hour-14)/9
		}
		w *= (1 - cfg.DiurnalStrength) + cfg.DiurnalStrength*shape
	}
	if wd := t.Weekday(); wd == time.Saturday || wd == time.Sunday {
		w *= cfg.WeekendFactor
	}
	return w
}

// pickDoc selects a page document: a revisit of the user's recent history
// with probability SelfAffinity, otherwise a draw from the global
// popularity distribution.
func pickDoc(cfg GenConfig, rng *dist.RNG, zipf *dist.Zipf, h *history) int {
	if cfg.SelfAffinity > 0 && h.len() > 0 && rng.Float64() < cfg.SelfAffinity {
		return h.pick(rng)
	}
	return zipf.Rank(rng)
}

// pickInline selects an inline object of the current page view: one of the
// ultra-hot site-wide images with probability HotWeight, otherwise an
// ordinary document from the popularity distribution.
func pickInline(cfg GenConfig, rng *dist.RNG, zipf *dist.Zipf) int {
	if cfg.HotWeight > 0 && rng.Float64() < cfg.HotWeight {
		return rng.Intn(cfg.HotDocs)
	}
	return zipf.Rank(rng)
}

// sampleGeometric draws a geometric count with the given mean, capped so a
// single page view cannot dominate a session.
func sampleGeometric(rng *dist.RNG, mean float64) int {
	if mean <= 0 {
		return 0
	}
	p := mean / (1 + mean)
	n := 0
	for n < 8 && rng.Float64() < p {
		n++
	}
	return n
}

func docURL(id int) string {
	// ~300 origin servers, matching the multi-server spread of real logs.
	return fmt.Sprintf("http://origin%03d.example.edu/doc%06d.html", id%311, id)
}

// history is a small ring of a user's recently referenced documents.
type history struct {
	ids []int
	pos int
	n   int
}

func newHistory(depth int) *history {
	return &history{ids: make([]int, max(depth, 1))}
}

func (h *history) add(id int) {
	h.ids[h.pos] = id
	h.pos = (h.pos + 1) % len(h.ids)
	if h.n < len(h.ids) {
		h.n++
	}
}

func (h *history) len() int { return h.n }

func (h *history) pick(r *dist.RNG) int {
	return h.ids[r.Intn(h.n)]
}
