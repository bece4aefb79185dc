package netnode

import (
	"errors"
	"fmt"
	"net"
	"time"

	"eacache/internal/icp"
	"eacache/internal/metrics"
	"eacache/internal/obs"
)

// ErrOverloaded is returned by Request when the node is over its
// MaxInflight bound and the ShedQueueWait budget elapsed without a slot
// freeing up — a fast refusal instead of a collapse. Callers should test
// with errors.Is.
var ErrOverloaded = errors.New("netnode: overloaded, request shed")

// Result describes how one request was served by a live node.
type Result struct {
	Outcome metrics.Outcome
	// Size is the number of body bytes received/served.
	Size int64
	// Responder is the HTTP address of the cache that served a remote
	// hit, or "".
	Responder string
	// Stored reports whether this node kept a copy.
	Stored bool
	// Promoted reports whether the responder refreshed its copy instead
	// (the scheme's responder-side rule, echoed back by the engine).
	Promoted bool
	// Coalesced reports that this request rode a concurrent resolution of
	// the same URL as a single-flight follower instead of fetching itself.
	Coalesced bool
	// TraceID is the group-wide trace identifier when the request was
	// sampled (0 otherwise) — its String is the handle for finding this
	// request's spans on every node it touched (/debug/trace?trace=...).
	TraceID obs.TraceID
}

// Request serves a client request end-to-end over the real protocols:
// local lookup, ICP fan-out, remote or origin fetch, placement decision.
// With telemetry configured it also records a trace (one span per stage,
// with the EA decision's two expiration ages on the placement span) and the
// outcome/latency metrics.
func (n *Node) Request(url string, sizeHint int64) (Result, error) {
	// Front-door overload gate: refuse fast, before any of the trace or
	// metrics machinery spends work on a request the node cannot absorb.
	if n.inflight != nil {
		if err := n.admit(); err != nil {
			return Result{}, err
		}
		defer func() { <-n.inflight }()
	}
	start := time.Now()
	tr := n.obs.StartTrace(n.id, url)
	res, err := n.serveRequest(tr, url, sizeHint)
	n.observeRequest(res, err, time.Since(start))
	if tr != nil {
		if err != nil {
			tr.Outcome = outcomeError
			tr.Err = err.Error()
		} else {
			tr.Outcome = res.Outcome.String()
			tr.SizeBytes = res.Size
			tr.Responder = res.Responder
			tr.Stored = res.Stored
		}
		res.TraceID = n.obs.Finish(tr)
	}
	return res, err
}

// serveRequest is the request lifecycle proper, delegated to the shared
// resolution engine (internal/resolve) — the same decision code the
// simulator runs. tr may be nil (telemetry off); it rides through the
// engine as the opaque request context, and every trace entry point is
// nil-safe. No global lock anywhere on the path: the store serialises
// per shard, the peer and hash-ring snapshots are immutable and swapped
// atomically, and the engine itself is stateless per request.
func (n *Node) serveRequest(tr *obs.Trace, url string, sizeHint int64) (Result, error) {
	res, err := n.engine.Resolve(tr, url, sizeHint, n.now())
	if err != nil {
		return Result{}, err
	}
	return Result{
		Outcome:   res.Outcome,
		Size:      res.Doc.Size,
		Responder: res.Responder,
		Stored:    res.Stored,
		Promoted:  res.Promoted,
		Coalesced: res.Coalesced,
	}, nil
}

// admit takes an in-flight slot, waiting at most shedWait for one before
// shedding the request. Only called when MaxInflight is configured.
func (n *Node) admit() error {
	select {
	case n.inflight <- struct{}{}:
		return nil
	default:
	}
	timer := time.NewTimer(n.shedWait)
	defer timer.Stop()
	select {
	case n.inflight <- struct{}{}:
		return nil
	case <-timer.C:
		n.om.sheds.Inc()
		return fmt.Errorf("%w (%d in flight, waited %v)", ErrOverloaded, cap(n.inflight), n.shedWait)
	}
}

// acquireUpstream takes an origin-semaphore slot, so at most
// OriginConcurrency parent/origin fetches run at once. A contended
// acquire is counted where it contends, timed on both exits, and bounded
// by the request's remaining fetch budget (FetchTimeout) — a saturated
// upstream fails the request instead of parking goroutines forever.
func (n *Node) acquireUpstream(tr *obs.Trace) error {
	select {
	case n.originSem <- struct{}{}:
		return nil
	default:
	}
	n.om.upstreamWaits.Inc()
	start := time.Now()
	timer := time.NewTimer(n.fetchTimeout)
	defer timer.Stop()
	var err error
	select {
	case n.originSem <- struct{}{}:
	case <-timer.C:
		err = fmt.Errorf("netnode %s: upstream concurrency limit %d saturated for %v", n.id, cap(n.originSem), n.fetchTimeout)
		n.warn("upstream semaphore saturated", tr, "limit", cap(n.originSem), "waited", n.fetchTimeout)
	}
	if n.obs != nil {
		n.om.upstreamWaitDur.ObserveDuration(time.Since(start))
	}
	return err
}

func (n *Node) releaseUpstream() { <-n.originSem }

// recordFanout feeds the fan-out's per-peer evidence to the breaker: every
// reply (hit or miss) is a success, an unsendable datagram is a failure,
// and — only when the query ran out its full timeout — silence is a
// failure too. A query resolved early by a hit says nothing about peers
// that simply had not answered yet.
func (n *Node) recordFanout(active []Peer, res icp.Result) {
	// heard[i] marks active[i] as accounted for; it stays on the stack
	// for any group this side of 16 peers.
	var stack [16]bool
	heard := stack[:]
	if len(active) > len(stack) {
		heard = make([]bool, len(active))
	}
	for _, a := range res.Answered {
		if i := peerByICP(active, a); i >= 0 {
			heard[i] = true
			n.health.ReportSuccess(active[i].HTTP)
		}
	}
	for _, a := range res.SendFailed {
		if i := peerByICP(active, a); i >= 0 {
			heard[i] = true
			n.health.ReportFailure(active[i].HTTP)
			n.om.peerFailures[pfICPSend].Inc()
		}
	}
	if res.TimedOut {
		for i, p := range active {
			if !heard[i] {
				n.health.ReportFailure(p.HTTP)
				n.om.peerFailures[pfICPSilent].Inc()
			}
		}
	}
	n.om.icpReplies.Add(int64(len(res.Answered)))
}

// peerByICP returns the index of the peer whose ICP address is a, or -1.
func peerByICP(peers []Peer, a *net.UDPAddr) int {
	for i, p := range peers {
		if udpAddrEqual(p.ICP, a) {
			return i
		}
	}
	return -1
}

// fetchUpstream fetches from the parent or origin with the configured
// retry budget, under the origin-concurrency semaphore. Transport errors
// are retried; a NotFound answer is final (repeating the question will
// not change it).
func (n *Node) fetchUpstream(tr *obs.Trace, addr, url string, sizeHint int64, reqAge time.Duration, resolve bool) (int64, time.Duration, string, error) {
	if err := n.acquireUpstream(tr); err != nil {
		return 0, 0, "", err
	}
	defer n.releaseUpstream()
	var lastErr error
	for attempt := 0; attempt < n.fetchAttempts; attempt++ {
		if attempt > 0 {
			n.om.retries.Inc()
		}
		size, age, source, err := n.fetchFrom(tr, addr, url, sizeHint, reqAge, resolve)
		if err == nil {
			return size, age, source, nil
		}
		lastErr = err
		if errors.Is(err, errNotFound) {
			break
		}
		n.warn("upstream fetch attempt failed", tr,
			"url", url, "upstream", addr,
			"attempt", attempt+1, "attempts", n.fetchAttempts, "err", err)
	}
	return 0, 0, "", lastErr
}
