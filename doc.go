// Package eacache is a from-scratch Go reproduction of "A New Document
// Placement Scheme for Cooperative Caching on the Internet" (Ramaswamy &
// Liu, ICDCS 2002): the Expiration-Age (EA) based document placement scheme
// for groups of cooperating web proxy caches, together with every substrate
// the paper's evaluation depends on — ICP (RFC 2186), the inter-proxy fetch
// protocol with piggybacked expiration ages, LRU/LFU replacement with
// expiration-age tracking, distributed and hierarchical cache groups, a
// BU-calibrated synthetic workload generator, a deterministic trace-driven
// simulator, and a live UDP/TCP proxy node.
//
// cmd/experiments regenerates every table and figure of the paper's
// evaluation section and bench/ (go run ./bench, BENCHMARK.json) is the
// benchmark ledger; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-versus-measured results.
package eacache
