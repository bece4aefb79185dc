package metrics

// DigestSnapshot is a point-in-time copy of a node's digest-maintenance
// counters (netnode.Node.DigestStats), the traffic the incremental
// counting-filter + delta-sync path is supposed to shrink.
type DigestSnapshot struct {
	DeltasServed     int64
	FullsServed      int64
	DeltasApplied    int64
	FullsApplied     int64
	DeltaBytesServed int64
	FullBytesServed  int64
	RebuildEscapes   int64
	StaleServed      int64
	Fetches          int64
	FetchFailures    int64
}
