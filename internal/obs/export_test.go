package obs

// SetTraceSeed makes the trace IDs minted from here on a fixed sequence,
// so a test can pin the bytes of a dump.
func SetTraceSeed(seed uint64) {
	traceSeed = seed
	traceSeq.Store(0)
}
