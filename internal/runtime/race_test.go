//go:build race

package runtime

// The race detector slows the 100k-task graph build and run four- to
// fivefold, eating the bounded-time test's margin; it skips under it.
func init() { underRace = true }
