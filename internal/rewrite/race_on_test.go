//go:build race

package rewrite

// raceEnabled reports a race-detector build, where sync.Pool drops pooled
// items at random and allocation counts mean nothing.
const raceEnabled = true
