package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"eacache/internal/blob"
	"eacache/internal/cache"
	"eacache/internal/chash"
	"eacache/internal/core"
	"eacache/internal/digest"
	"eacache/internal/hproto"
	"eacache/internal/icp"
	"eacache/internal/metrics"
	"eacache/internal/netnode"
	"eacache/internal/persist"
	"eacache/internal/resolve"
)

// The layer probes time calls into each internal/ package's public
// functions from outside, with inputs drawn from the workload's own
// documents. They are the same on every workload; what a probe predicts
// for which end-to-end metric is tabulated in README.md.

// prober runs the probe pass of a traced run.
type prober struct {
	out   *outcome
	spans *spanLog
	quick bool
	urls  []string
	sizes []int64
	dir   string // scratch for the blob, journal and tier probes
}

// scale shrinks a probe's call count in the smoke test.
func (p *prober) scale(n int) int {
	if p.quick {
		if n /= 50; n < 4 {
			n = 4
		}
	}
	return n
}

const probeBatches = 9

// timeBatches is for calls too short to time one by one: batches of
// calls, the per-call mean of each batch, the median over batches. It
// returns that median in nanoseconds and reports it divided by unitNS.
func (p *prober) timeBatches(name string, unitNS float64, calls int, fn func(i int)) float64 {
	calls = p.scale(calls)
	perCall := make([]float64, 0, probeBatches)
	for b := 0; b < probeBatches; b++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			fn(b*calls + i)
		}
		end := time.Now()
		p.spans.addProbe(name, calls, start, end)
		perCall = append(perCall, float64(end.Sub(start).Nanoseconds())/float64(calls))
	}
	med := median(perCall)
	p.out.set(name, med/unitNS)
	return med
}

// timeEach is for calls long enough to time one by one (a socket round
// trip, a file): the median over calls, which is what the end-to-end
// class medians are made of.
func (p *prober) timeEach(name string, unitNS float64, calls int, fn func(i int) error) (float64, error) {
	calls = p.scale(calls)
	each := make([]float64, 0, calls)
	start := time.Now()
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("probe %s: %w", name, err)
		}
		each = append(each, float64(time.Since(t0).Nanoseconds()))
	}
	p.spans.addProbe(name, calls, start, time.Now())
	med := median(each)
	p.out.set(name, med/unitNS)
	return med, nil
}

func (p *prober) doc(i int) cache.Document {
	k := i % len(p.urls)
	return cache.Document{URL: p.urls[k], Size: p.sizes[k]}
}

// probeCosts are the probe medians the reconciliation adds up, in ns.
type probeCosts struct {
	getHit, getMiss, putEvict, tieredDiskGet float64
	decide                                   float64
	engineLocal, engineRemote                float64
	queryHit, queryAllMiss                   float64
	peerFetch, originFetch                   float64
	append                                   float64
}

// sink keeps the compiler from discarding probe results.
var sink int

func (p *prober) runAll() (probeCosts, error) {
	var pc probeCosts
	p.spans.beginPass()
	defer p.spans.endPass()
	steps := []func(*probeCosts) error{
		p.probeCache, p.probeTiered, p.probeCore, p.probeEngine, p.probeICP, p.probeHproto,
		p.probeNetnode, p.probeLocators, p.probePersist, p.probeBlob, p.probeObs,
	}
	for _, step := range steps {
		if err := step(&pc); err != nil {
			return pc, err
		}
	}
	return pc, nil
}

func (p *prober) probeCache(pc *probeCosts) error {
	store, err := cache.NewSharded(cache.ShardedConfig{Capacity: nodeMemory, ExpirationWindow: cache.DefaultExpirationWindow})
	if err != nil {
		return err
	}
	now := time.Date(2002, 7, 2, 0, 0, 0, 0, time.UTC)
	var resident []string
	for i := 0; i < len(p.urls) && store.Used() < nodeMemory*3/4; i++ {
		if _, err := store.Put(p.doc(i), now); err == nil && store.Evictions() == 0 {
			resident = append(resident, p.urls[i])
		}
	}
	if len(resident) == 0 {
		return fmt.Errorf("cache probe: nothing resident")
	}
	absent := make([]string, 1024)
	for i := range absent {
		absent[i] = "http://absent.bench.example/doc" + strconv.Itoa(i)
	}
	pc.getHit = p.timeBatches("cache.get_hit_ns", 1, 20000, func(i int) {
		if _, ok := store.Get(resident[i%len(resident)], now); ok {
			sink++
		}
	})
	pc.getMiss = p.timeBatches("cache.get_miss_ns", 1, 20000, func(i int) {
		if _, ok := store.Get(absent[i%len(absent)], now); ok {
			sink++
		}
	})
	// Fill the store, then every Put of a fresh URL must evict.
	fresh := make([]string, probeBatches*p.scale(4000))
	for i := range fresh {
		fresh[i] = "http://fresh.bench.example/doc" + strconv.Itoa(i)
	}
	for i := 0; store.Evictions() == 0; i++ {
		doc := p.doc(i)
		doc.URL = "http://fill.bench.example/doc" + strconv.Itoa(i)
		if _, err := store.Put(doc, now); err != nil {
			return err
		}
	}
	pc.putEvict = p.timeBatches("cache.put_evict_ns", 1, 4000, func(i int) {
		doc := p.doc(i)
		doc.URL = fresh[i]
		now = now.Add(vclockStep)
		evicted, _ := store.Put(doc, now)
		sink += len(evicted)
	})
	p.timeBatches("cache.expage_ns", 1, 20000, func(i int) {
		now = now.Add(vclockStep)
		sink += int(store.ExpirationAge(now))
	})
	return nil
}

// probeTiered times a Get that has to come from the disk tier: the
// document set is three times the memory tier and is read round-robin,
// so under LRU the wanted document was always demoted long ago.
func (p *prober) probeTiered(pc *probeCosts) error {
	memory := int64(nodeMemory)
	if p.quick {
		memory /= 4
	}
	mem, err := cache.NewSharded(cache.ShardedConfig{Capacity: memory, ExpirationWindow: cache.DefaultExpirationWindow})
	if err != nil {
		return err
	}
	disk, err := blob.Open(blob.Config{Dir: filepath.Join(p.dir, "tiered"), Capacity: spillDisk, ExpirationWindow: cache.DefaultExpirationWindow})
	if err != nil {
		return err
	}
	tiered, err := cache.NewTiered(cache.TieredConfig{Memory: mem, Disk: disk})
	if err != nil {
		_ = disk.Close()
		return err
	}
	defer tiered.CloseDisk()
	now := time.Date(2002, 7, 2, 0, 0, 0, 0, time.UTC)
	var set []string
	var total int64
	for i := 0; total < 3*memory; i++ {
		doc := p.doc(i)
		if doc.Size > memory/16 {
			continue // would not fit a shard of the smoke test's small tier; at full size every document fits
		}
		doc.URL = "http://tiered.bench.example/doc" + strconv.Itoa(i)
		now = now.Add(vclockStep)
		if _, err := tiered.Put(doc, now); err != nil {
			return err
		}
		set = append(set, doc.URL)
		total += doc.Size
	}
	fromDisk := 0
	pc.tieredDiskGet, err = p.timeEach("cache.tiered_get_disk_us", 1e3, 600, func(i int) error {
		url := set[i%len(set)]
		if tiered.Disk().Contains(url) {
			fromDisk++
		}
		now = now.Add(vclockStep)
		if _, ok := tiered.Get(url, now); !ok {
			return fmt.Errorf("lost %s", url)
		}
		return nil
	})
	if err == nil && fromDisk < p.scale(600)*9/10 {
		err = fmt.Errorf("tiered probe: only %d of %d gets came from disk", fromDisk, p.scale(600))
	}
	return err
}

func (p *prober) probeCore(pc *probeCosts) error {
	var scheme core.Scheme = core.EA{}
	pc.decide = p.timeBatches("core.decide_ns", 1, 100000, func(i int) {
		d := scheme.OnRemoteHit(time.Duration(i%7)*time.Second, time.Duration(i%5)*time.Second)
		if d.StoreAtRequester {
			sink++
		}
	})
	return nil
}

// nopStore, nopLocator and nopTransport stand in for the engine's three
// dependencies so that what is timed is the engine's own lifecycle code.
type nopStore struct{ hit bool }

func (s nopStore) Lookup(_ any, url string, _ time.Time) (cache.Document, bool) {
	return cache.Document{URL: url, Size: meanDocSize}, s.hit
}
func (nopStore) ExpirationAge(time.Time) time.Duration    { return time.Minute }
func (nopStore) StoreCopy(cache.Document, time.Time) bool { return true }

type nopLocator struct{}

func (nopLocator) Locate(any, string, time.Time) resolve.Located {
	return resolve.Located{Candidates: nopCandidates}
}

var nopCandidates = []resolve.Candidate{{ID: "peer"}}

type nopTransport struct{}

func (nopTransport) FetchRemote(_ any, _ resolve.Candidate, url string, size int64, _ time.Duration, _ bool, _ time.Time) (resolve.Remote, resolve.FetchStatus) {
	return resolve.Remote{Doc: cache.Document{URL: url, Size: size}, ResponderAge: time.Second, FromGroup: true}, resolve.FetchOK
}
func (nopTransport) ParentID() (string, bool) { return "", false }
func (nopTransport) FetchParent(any, string, int64, time.Duration, time.Time) (resolve.Remote, error) {
	return resolve.Remote{}, fmt.Errorf("no parent")
}
func (nopTransport) HasOrigin() bool { return true }
func (nopTransport) FetchOrigin(_ any, url string, size int64, _ time.Duration, _ time.Time) (cache.Document, error) {
	return cache.Document{URL: url, Size: size}, nil
}

func (p *prober) probeEngine(pc *probeCosts) error {
	now := time.Date(2002, 7, 2, 0, 0, 0, 0, time.UTC)
	engine := func(hit bool) *resolve.Engine {
		return &resolve.Engine{
			ID: "probe", Store: nopStore{hit: hit}, Scheme: core.EA{},
			Locator: nopLocator{}, Transport: nopTransport{}, Coalescer: resolve.NewCoalescer(),
		}
	}
	var failed error
	time1 := func(name string, e *resolve.Engine, want metrics.Outcome) float64 {
		return p.timeBatches(name, 1, 20000, func(i int) {
			doc := p.doc(i)
			res, err := e.Resolve(nil, doc.URL, doc.Size, now)
			if err != nil || res.Outcome != want {
				failed = fmt.Errorf("probe %s: outcome %v, err %v", name, res.Outcome, err)
			}
		})
	}
	pc.engineLocal = time1("resolve.engine_local_ns", engine(true), metrics.LocalHit)
	pc.engineRemote = time1("resolve.engine_remote_ns", engine(false), metrics.RemoteHit)
	return failed
}

func (p *prober) probeICP(pc *probeCosts) error {
	var wire []byte
	var failed error
	p.timeBatches("icp.marshal_ns", 1, 50000, func(i int) {
		b, err := icp.Query(uint32(i), p.urls[i%len(p.urls)]).Marshal()
		if err != nil {
			failed = err
		}
		wire = b
	})
	p.timeBatches("icp.parse_ns", 1, 50000, func(i int) {
		if _, err := icp.Parse(wire); err != nil {
			failed = err
		}
	})
	if failed != nil {
		return failed
	}

	// Three live responders, as a node in a four-node group has. Only the
	// first holds the "held" URLs.
	const held = "http://held.bench.example/"
	var addrs []*net.UDPAddr
	for s := 0; s < 3; s++ {
		holder := s == 0
		srv, err := icp.NewServer("127.0.0.1:0", icp.HandlerFunc(func(url string) icp.Opcode {
			if holder && len(url) > len(held) && url[:len(held)] == held {
				return icp.OpHit
			}
			return icp.OpMiss
		}), nil)
		if err != nil {
			return err
		}
		defer srv.Close()
		addrs = append(addrs, srv.Addr())
	}
	client := icp.NewClient()
	defer client.Close()
	var err error
	pc.queryHit, err = p.timeEach("icp.query_hit_us", 1e3, 400, func(i int) error {
		res, err := client.Query(addrs, held+strconv.Itoa(i), netnode.DefaultICPTimeout)
		if err == nil && !res.Hit {
			err = fmt.Errorf("query %d: no hit", i)
		}
		return err
	})
	if err != nil {
		return err
	}
	pc.queryAllMiss, err = p.timeEach("icp.query_allmiss_us", 1e3, 400, func(i int) error {
		res, err := client.Query(addrs, p.urls[i%len(p.urls)], netnode.DefaultICPTimeout)
		if err == nil && (res.Hit || res.TimedOut) {
			err = fmt.Errorf("query %d: hit %v, timed out %v", i, res.Hit, res.TimedOut)
		}
		return err
	})
	return err
}

func (p *prober) probeHproto(pc *probeCosts) error {
	body := make([]byte, meanDocSize)
	var buf bytes.Buffer
	var failed error
	req := func(i int) hproto.Request {
		doc := p.doc(i)
		return hproto.Request{URL: doc.URL, RequesterAge: time.Duration(i%9) * time.Second, SizeHint: doc.Size}
	}
	p.timeBatches("hproto.write_request_ns", 1, 20000, func(i int) {
		buf.Reset()
		if err := hproto.WriteRequest(&buf, req(i)); err != nil {
			failed = err
		}
	})
	wireReq := append([]byte(nil), buf.Bytes()...)
	rd := bytes.NewReader(nil)
	br := bufio.NewReader(rd)
	p.timeBatches("hproto.read_request_ns", 1, 20000, func(i int) {
		rd.Reset(wireReq)
		br.Reset(rd)
		if _, err := hproto.ReadRequest(br); err != nil {
			failed = err
		}
	})
	resp := hproto.Response{Status: hproto.StatusOK, ResponderAge: 3 * time.Second, ContentLength: int64(len(body)), Source: hproto.SourceCache}
	bodyRd := bytes.NewReader(nil)
	p.timeBatches("hproto.write_response_ns", 1, 20000, func(i int) {
		buf.Reset()
		bodyRd.Reset(body)
		if err := hproto.WriteResponse(&buf, resp, bodyRd); err != nil {
			failed = err
		}
	})
	wireResp := append([]byte(nil), buf.Bytes()...)
	p.timeBatches("hproto.read_response_ns", 1, 20000, func(i int) {
		rd.Reset(wireResp)
		br.Reset(rd)
		got, err := hproto.ReadResponse(br)
		if err == nil {
			_, err = io.CopyN(io.Discard, br, got.ContentLength)
		}
		if err != nil {
			failed = err
		}
	})
	return failed
}

// rawGet is one hproto GET from benchmark code: dial, request, response
// head, body, close — what a peer or origin fetch costs on the wire.
func rawGet(addr, url string, size int64) error {
	conn, err := net.DialTimeout("tcp", addr, netnode.DefaultDialTimeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(netnode.DefaultFetchTimeout))
	if err := hproto.WriteRequest(conn, hproto.Request{URL: url, RequesterAge: cache.NoContention, SizeHint: size}); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	resp, err := hproto.ReadResponse(br)
	if err != nil {
		return err
	}
	if resp.Status != hproto.StatusOK || resp.ContentLength != size {
		return fmt.Errorf("GET %s from %s: status %d, %d bytes, want %d", url, addr, resp.Status, resp.ContentLength, size)
	}
	_, err = io.CopyN(io.Discard, br, resp.ContentLength)
	return err
}

// probeNetnode measures the wire legs against a small group of its own,
// so the workload's group is not disturbed: a node that holds the probe
// documents, and the origin behind it.
func (p *prober) probeNetnode(pc *probeCosts) error {
	g, err := startGroup(groupConfig{nodes: 1, clock: newVClock(), obs: true})
	if err != nil {
		return err
	}
	defer g.close()
	node := g.nodes[0]
	var held []int
	for i := 0; i < len(p.urls) && i < 256; i++ {
		if _, err := node.Request(p.urls[i], p.sizes[i]); err != nil {
			return err
		}
	}
	for i := 0; i < len(p.urls) && i < 256; i++ {
		if node.Contains(p.urls[i]) {
			held = append(held, i)
		}
	}
	if len(held) == 0 {
		return fmt.Errorf("netnode probe: node holds nothing")
	}
	if _, err := p.timeEach("netnode.dial_us", 1e3, 400, func(int) error {
		conn, err := net.DialTimeout("tcp", node.HTTPAddr(), netnode.DefaultDialTimeout)
		if err != nil {
			return err
		}
		return conn.Close()
	}); err != nil {
		return err
	}
	if pc.peerFetch, err = p.timeEach("netnode.peer_fetch_us", 1e3, 400, func(i int) error {
		k := held[i%len(held)]
		return rawGet(node.HTTPAddr(), p.urls[k], p.sizes[k])
	}); err != nil {
		return err
	}
	pc.originFetch, err = p.timeEach("netnode.origin_fetch_us", 1e3, 400, func(i int) error {
		k := i % len(p.urls)
		return rawGet(g.origin.Addr(), p.urls[k], p.sizes[k])
	})
	return err
}

func (p *prober) probeLocators(*probeCosts) error {
	filter, err := digest.NewFilter(len(p.urls), 0.01)
	if err != nil {
		return err
	}
	for _, u := range p.urls {
		filter.Add(u)
	}
	p.timeBatches("digest.probe_ns", 1, 50000, func(i int) {
		if filter.MayContain(p.urls[i%len(p.urls)]) {
			sink++
		}
	})
	inc, err := digest.NewIncremental(len(p.urls), 0.01, digest.DefaultDeltaWindow)
	if err != nil {
		return err
	}
	p.timeBatches("digest.update_ns", 1, 20000, func(i int) {
		u := p.urls[i%len(p.urls)]
		inc.Add(u)
		inc.Remove(u)
	})
	ring, err := chash.New(chash.DefaultReplicas, "bench-0", "bench-1", "bench-2", "bench-3")
	if err != nil {
		return err
	}
	p.timeBatches("chash.owner_ns", 1, 50000, func(i int) {
		sink += len(ring.Owner(p.urls[i%len(p.urls)]))
	})
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			if os.IsNotExist(err) {
				return nil // a file rotated or promoted away mid-walk
			}
			return err
		}
		if d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total, err
}

func (p *prober) probePersist(pc *probeCosts) error {
	journal, err := persist.Open(persist.Config{Dir: filepath.Join(p.dir, "journal")})
	if err != nil {
		return err
	}
	now := time.Date(2002, 7, 2, 0, 0, 0, 0, time.UTC)
	pc.append, err = p.timeEach("persist.append_us", 1e3, 2000, func(i int) error {
		journal.Append(cache.Event{Kind: cache.EventHit, Doc: p.doc(i), At: now})
		return nil
	})
	if cerr := journal.Close(); err == nil {
		err = cerr
	}
	return err
}

func (p *prober) probeBlob(*probeCosts) error {
	dir := filepath.Join(p.dir, "blob")
	store, err := blob.Open(blob.Config{Dir: dir, Capacity: spillDisk, ExpirationWindow: cache.DefaultExpirationWindow})
	if err != nil {
		return err
	}
	defer store.Close()
	now := time.Date(2002, 7, 2, 0, 0, 0, 0, time.UTC)
	// The node demotes all-zero bodies, which the content-addressed store
	// would fold into one blob; distinct bodies make every Admit a write.
	body := make([]byte, meanDocSize)
	calls := 400
	var admitted int64
	if _, err := p.timeEach("blob.admit_us", 1e3, calls, func(i int) error {
		binary.LittleEndian.PutUint64(body, uint64(i)+1)
		doc := cache.Document{URL: "http://blob.bench.example/doc" + strconv.Itoa(i), Size: int64(len(body))}
		_, _, err := store.Admit(cache.DiskEntry{Doc: doc, EnteredAt: now, LastHit: now}, bytes.NewReader(body), now)
		admitted += doc.Size
		return err
	}); err != nil {
		return err
	}
	if err := store.Sync(); err != nil {
		return err
	}
	written, err := dirBytes(dir)
	if err != nil {
		return err
	}
	p.out.set("blob.bytes_written_per_demoted_byte", float64(written)/float64(admitted))
	_, err = p.timeEach("blob.open_read_us", 1e3, calls, func(i int) error {
		_, rc, ok := store.Open("http://blob.bench.example/doc" + strconv.Itoa(i))
		if !ok {
			return fmt.Errorf("blob %d not found", i)
		}
		_, err := io.Copy(io.Discard, rc)
		if cerr := rc.Close(); err == nil {
			err = cerr
		}
		return err
	})
	if err == nil && store.ChecksumFailures() != 0 {
		err = fmt.Errorf("blob probe: %d checksum failures", store.ChecksumFailures())
	}
	return err
}

// probeObs prices the telemetry budget on the path where it weighs most:
// local hits on twin one-node groups, one with Obs at proxyd's defaults
// and one with Obs nil, in alternating short slices so both see the same
// machine. The measure is process CPU per request.
func (p *prober) probeObs(*probeCosts) error {
	var twins [2]*liveGroup
	for t, withObs := range []bool{false, true} {
		g, err := startGroup(groupConfig{nodes: 1, clock: newVClock(), obs: withObs})
		if err != nil {
			return err
		}
		defer g.close()
		twins[t] = g
	}
	var held []int
	for i := 0; i < len(p.urls) && i < 128; i++ {
		ok := true
		for _, g := range twins {
			if _, err := g.nodes[0].Request(p.urls[i], p.sizes[i]); err != nil {
				return err
			}
			ok = ok && g.nodes[0].Contains(p.urls[i])
		}
		if ok {
			held = append(held, i)
		}
	}
	if len(held) == 0 {
		return fmt.Errorf("obs probe: twins hold nothing")
	}
	const slices = 10
	calls := p.scale(100000)
	var perReq [2][]float64
	for s := 0; s < slices; s++ {
		for turn := 0; turn < len(twins); turn++ {
			t := (s + turn) % len(twins) // the twins take turns at going first
			before, err := readRusage()
			if err != nil {
				p.out.unreadable("obs.overhead_pct", err.Error())
				return nil
			}
			start := time.Now()
			for i := 0; i < calls; i++ {
				k := held[i%len(held)]
				res, err := twins[t].nodes[0].Request(p.urls[k], p.sizes[k])
				if err != nil || res.Outcome != metrics.LocalHit {
					return fmt.Errorf("obs probe: outcome %v, err %v", res.Outcome, err)
				}
			}
			after, err := readRusage()
			if err != nil {
				p.out.unreadable("obs.overhead_pct", err.Error())
				return nil
			}
			p.spans.addProbe("obs.overhead_pct", calls, start, time.Now())
			perReq[t] = append(perReq[t], float64(after.cpu()-before.cpu())/float64(calls))
		}
	}
	off, on := undisturbed(perReq[0], false), undisturbed(perReq[1], false)
	p.out.set("obs.overhead_pct", (on-off)/off*100)
	p.out.infof("obs probe: %.1f ns CPU per local hit with Obs nil, %.1f ns with Obs at defaults", off, on)
	return nil
}
