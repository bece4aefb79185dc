package resolve

import "fmt"

// Location selects the document-location mechanism a node uses to find
// a document in its neighbours' caches. It is the one shared enum for
// both stacks — the simulator (internal/proxy, internal/group) and the
// live node (internal/netnode) — and for the proxyd -locate flag.
type Location int

// Location mechanisms.
const (
	// LocateICP queries every neighbour with an ICP message on each
	// local miss — exact answers, O(neighbours) messages per miss. This
	// is the paper's setting.
	LocateICP Location = iota + 1
	// LocateDigest consults the neighbours' advertised Bloom-filter
	// summaries (Summary Cache) — no per-miss messages, but summaries go
	// stale between rebuilds: false hits cost a wasted fetch attempt,
	// stale entries cost missed remote hits.
	LocateDigest
	// LocateHash routes every URL to its consistent-hash home node
	// (Karger et al.) — no location messages at all and at most one
	// copy of each document group-wide, at the price of forfeiting
	// local hits for documents homed elsewhere.
	LocateHash
)

// String implements fmt.Stringer.
func (l Location) String() string {
	switch l {
	case LocateICP:
		return "icp"
	case LocateDigest:
		return "digest"
	case LocateHash:
		return "hash"
	default:
		return fmt.Sprintf("location(%d)", int(l))
	}
}

// ParseLocation parses a mechanism name as spelled on the proxyd
// -locate flag.
func ParseLocation(s string) (Location, error) {
	switch s {
	case "icp":
		return LocateICP, nil
	case "digest":
		return LocateDigest, nil
	case "hash":
		return LocateHash, nil
	default:
		return 0, fmt.Errorf(`unknown location mechanism %q (want "icp", "digest" or "hash")`, s)
	}
}
