package cache

// ShardEvictionsLocked sums the shards' eviction counters without taking
// their locks, for a caller that already holds them all: a Checkpoint
// capture.
func (s *ShardedStore) ShardEvictionsLocked() int64 {
	var n int64
	for _, sh := range s.shards {
		n += sh.store.Evictions()
	}
	return n
}
