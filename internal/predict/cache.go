package predict

import "sync/atomic"

// CacheStats reports how a site's walks priced their predictions.
type CacheStats struct {
	Hits   uint64 // predictions priced from an already resolved kind row
	Misses uint64 // (task kind, host) cells resolved from the repository
}

// Cache counts a site's pricing work. It holds no predictions: a walk
// resolves each task kind against the repository once, prices every task of
// that kind from the row, and drops the rows when it returns, so nothing
// outlives the repository state it was read from. A nil *Cache counts
// nothing.
type Cache struct {
	hits, misses atomic.Uint64
}

// NewCache returns zeroed counters.
func NewCache() *Cache { return &Cache{} }

// Count adds one walk's totals.
func (c *Cache) Count(hits, misses uint64) {
	if c == nil {
		return
	}
	c.hits.Add(hits)
	c.misses.Add(misses)
}

// InvalidateAll does nothing: no prediction outlives its walk.
func (c *Cache) InvalidateAll() {}

// Stats returns a point-in-time view of the counters.
func (c *Cache) Stats() CacheStats {
	return CacheStats{Hits: c.hits.Load(), Misses: c.misses.Load()}
}
