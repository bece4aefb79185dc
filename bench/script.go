package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"eacache/internal/dist"
)

// Document sizes follow the same bounded Pareto everywhere: mean 8 KB,
// capped at 256 KB so that every document fits one shard of a 4 MB store
// (8 shards x 512 KB).
const (
	meanDocSize = 8 << 10
	maxDocSize  = 256 << 10
	sizeAlpha   = 1.3
)

// catalogue is a workload's document population. A document's URL and size
// are functions of its rank alone; rank 0 is the most popular.
type catalogue struct {
	urls  []string
	sizes []int64
	bytes int64
}

// newCatalogue draws documents until their sizes add up to targetBytes, so
// the catalogue-to-capacity ratio — what the hit mix depends on — is the
// same for every seed even though the sizes differ.
func newCatalogue(rng *dist.RNG, host string, targetBytes int64) (*catalogue, error) {
	pareto, err := dist.ParetoWithMean(meanDocSize, maxDocSize, sizeAlpha)
	if err != nil {
		return nil, err
	}
	c := &catalogue{}
	for c.bytes < targetBytes {
		size := int64(pareto.Sample(rng))
		if size < 1 {
			size = 1
		}
		c.urls = append(c.urls, fmt.Sprintf("http://%s.bench.example/doc%d", host, len(c.urls)))
		c.sizes = append(c.sizes, size)
		c.bytes += size
	}
	return c, nil
}

// req is one scripted request: which document, asked at which node.
type req struct {
	doc  uint32
	node uint8
}

// zipfScript draws n requests: document by Zipf rank, entry node uniform.
// With parts > 1 the script asks only for every parts-th document,
// starting at part, so that scripts of different parts share none.
func zipfScript(rng *dist.RNG, n, docs, nodes int, alpha float64, part, parts int) ([]req, error) {
	zipf, err := dist.NewZipf((docs-part+parts-1)/parts, alpha)
	if err != nil {
		return nil, err
	}
	script := make([]req, n)
	for i := range script {
		script[i] = req{doc: uint32(zipf.Rank(rng)*parts + part), node: uint8(rng.Intn(nodes))}
	}
	return script, nil
}

// vclock is the cache-visible clock handed to every node as Config.Now: it
// advances one fixed step per issued request, so document ages — and with
// them every eq.-5 placement verdict and the hit mix — depend on the
// request script, not on how fast the machine happens to run it. Socket
// deadlines and every measured latency stay on the real clock.
type vclock struct {
	base time.Time
	n    atomic.Int64
}

const vclockStep = time.Millisecond

func newVClock() *vclock {
	return &vclock{base: time.Date(2002, 7, 2, 0, 0, 0, 0, time.UTC)}
}

func (c *vclock) tick() { c.n.Add(1) }

func (c *vclock) now() time.Time {
	return c.base.Add(time.Duration(c.n.Load()) * vclockStep)
}
