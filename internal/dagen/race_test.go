//go:build race

package dagen

// The race detector slows single-goroutine code five- to tenfold, which is
// the whole margin of the bounded-time ingest tests; they skip under it.
func init() { underRace = true }
