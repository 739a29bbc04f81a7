package predict

import (
	"sync"
	"testing"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewCache()
	c.Count(10, 4)
	c.Count(5, 0)
	c.InvalidateAll() // holds nothing to forget; the counters stay
	if st := c.Stats(); st.Hits != 15 || st.Misses != 4 {
		t.Fatalf("stats = %+v, want 15 hits, 4 misses", st)
	}
	var none *Cache
	none.Count(1, 1) // a selector without counters counts nothing
}

// TestCacheConcurrent adds from many walks at once; run with -race.
func TestCacheConcurrent(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				c.Count(3, 1)
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Hits != 6000 || st.Misses != 2000 {
		t.Fatalf("stats = %+v, want 6000 hits, 2000 misses", st)
	}
}
