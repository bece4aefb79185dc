// Livenet: the cooperative protocol on real sockets. Three proxy nodes and
// an origin server start on loopback; the nodes locate documents in each
// other's caches with ICP (RFC 2186) over UDP and transfer them with the
// inter-proxy fetch protocol over TCP, cache expiration ages piggybacked on
// the request and response messages exactly as the paper describes.
//
// A Zipf workload is replayed through the group and the wire-level outcome
// mix is printed, demonstrating that the EA scheme's decision inputs travel
// with zero extra messages.
//
//	go run ./examples/livenet
package main

import (
	"fmt"
	"log"
	"os"

	"eacache/internal/cache"
	"eacache/internal/core"
	"eacache/internal/dist"
	"eacache/internal/metrics"
	"eacache/internal/netnode"
)

func main() {
	if err := run(); err != nil {
		log.SetFlags(0)
		log.SetOutput(os.Stderr)
		log.Fatal("livenet: ", err)
	}
}

func run() error {
	origin, err := netnode.NewOriginServer("127.0.0.1:0", nil)
	if err != nil {
		return err
	}
	defer origin.Close()
	fmt.Println("origin server:", origin.Addr())

	const nodes = 3
	group := make([]*netnode.Node, 0, nodes)
	defer func() {
		for _, n := range group {
			_ = n.Close()
		}
	}()
	for i := 0; i < nodes; i++ {
		store, err := cache.NewSharded(cache.ShardedConfig{
			Shards:            1,
			Capacity:          128 << 10,
			ExpirationHorizon: cache.DefaultExpirationHorizon,
		})
		if err != nil {
			return err
		}
		node, err := netnode.New(netnode.Config{
			ID:         fmt.Sprintf("proxy-%d", i),
			ICPAddr:    "127.0.0.1:0",
			HTTPAddr:   "127.0.0.1:0",
			Store:      store,
			Scheme:     core.EA{},
			OriginAddr: origin.Addr(),
		})
		if err != nil {
			return err
		}
		group = append(group, node)
		fmt.Printf("%s: icp=%v fetch=%v\n", node.ID(), node.ICPAddr(), node.HTTPAddr())
	}
	for i, n := range group {
		var peers []netnode.Peer
		for j, other := range group {
			if i != j {
				peers = append(peers, netnode.Peer{ICP: other.ICPAddr(), HTTP: other.HTTPAddr()})
			}
		}
		n.SetPeers(peers)
	}
	fmt.Println()

	// Replay a Zipf-popular workload round-robin across the proxies so
	// the same documents are requested behind different caches — the
	// cooperative case.
	rng := dist.NewRNG(1994)
	zipf, err := dist.NewZipf(150, 0.8)
	if err != nil {
		return err
	}
	var counters metrics.Counters
	const requests = 900
	for i := 0; i < requests; i++ {
		node := group[i%len(group)]
		url := fmt.Sprintf("http://live.example.edu/doc%03d.html", zipf.Rank(rng))
		res, err := node.Request(url, int64(1024+rng.Intn(3072)))
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		counters.Record(res.Outcome, res.Size)
	}

	snap := counters.Snapshot()
	fmt.Printf("replayed %d requests over UDP/TCP on loopback:\n", requests)
	fmt.Printf("  local hits : %5.1f%%\n", 100*snap.LocalHitRate())
	fmt.Printf("  remote hits: %5.1f%%   <- served proxy-to-proxy after an ICP hit\n",
		100*snap.RemoteHitRate())
	fmt.Printf("  misses     : %5.1f%%   (origin served %d fetches)\n",
		100*snap.MissRate(), origin.Fetches())
	fmt.Printf("  estimated mean latency (paper model): %v\n",
		metrics.PaperLatencies.EstimatedAverageLatency(snap))
	return nil
}
