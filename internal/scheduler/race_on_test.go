//go:build race

package scheduler

// raceBuild reports a -race build, whose sync.Pool drops one Put in four.
const raceBuild = true
