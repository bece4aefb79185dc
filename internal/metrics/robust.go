package metrics

// RobustnessSnapshot is a copy of the degradations a live node's
// fault-tolerant fetch path has taken, so that surviving a failure is
// observable rather than silent. The node counts each one once, in the
// counter /metrics serves (netnode.Node.Robustness fills this from that
// storage); each counter is read atomically, the set is not a transaction.
type RobustnessSnapshot struct {
	PeerFailures  int64
	Retries       int64
	Fallbacks     int64
	BreakerOpens  int64
	BreakerCloses int64
	WireClamps    int64
	TraceClamps   int64

	CoalescedFollowers int64
	LeaderElections    int64
	LeaderRetries      int64
	Sheds              int64
	OriginWaits        int64

	Ejections         int64
	Readmissions      int64
	MigratedDocs      int64
	MigratedBytes     int64
	MigrationFailures int64
}
